(* The benchmark's workload process.  run.py starts it once per set-up
   sample and once per measured phase, each in a fresh process:

     perfbench MODE --workload W --seed N [--seconds S] [--size full|tiny]
               [--cli PATH] [--work DIR]

   MODE is [digest] (hash of the generated inputs), [setup] (one timed
   set-up), [run] (set-up, then the measured phase), [rss] (batch-packed
   only: set-up, then the jobs up to its peak-RSS reading) or [trace]
   (the traced replay).  The last line of standard output is one JSON
   object. *)

open Common

let () =
  let args = Array.to_list Sys.argv in
  let mode = match args with _ :: m :: _ -> m | _ -> "" in
  let rec opt k = function
    | k' :: v :: _ when k' = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let get k d = Option.value (opt k args) ~default:d in
  let workload = get "--workload" "" in
  let seed = int_of_string (get "--seed" "1") in
  let seconds = float_of_string (get "--seconds" "10") in
  let tiny = get "--size" "full" = "tiny" in
  let cli = get "--cli" "_build/default/bin/spanner_cli.exe" in
  let work = get "--work" ".perfbench" in
  mkdir_p work;
  let sock = Filename.concat work "serve.sock" in
  let result (attempted, failed, correct, metrics, facts) =
    Obj
      [
        ("correct", Bool correct);
        ("attempted", Int attempted);
        ("failed", Int failed);
        ("metrics", Obj metrics);
        ("facts", Obj facts);
      ]
  in
  let out =
    match (workload, mode) with
    | "serve-warm", _ ->
        let size = if tiny then Serve_warm.tiny else Serve_warm.full in
        let inp = Serve_warm.generate ~size ~seed ~work in
        (match mode with
        | "digest" -> Obj [ ("digest", Str (Serve_warm.inputs_digest inp)) ]
        | "setup" -> Obj [ ("setup_s", Num (Serve_warm.setup_only ~cli ~sock inp)) ]
        | "run" -> result (Serve_warm.run ~cli ~sock ~seconds inp)
        | "trace" -> result (Serve_warm.trace ~cli ~sock ~size inp)
        | m -> fail "unknown mode %S" m)
    | "batch-packed", _ ->
        let size = if tiny then Batch_packed.tiny else Batch_packed.full in
        let inp = Batch_packed.generate ~size ~seed in
        (match mode with
        | "digest" -> Obj [ ("digest", Str (Batch_packed.inputs_digest inp)) ]
        | "setup" -> Obj [ ("setup_s", Num (Batch_packed.setup_only ~size ~work inp)) ]
        | "run" -> result (Batch_packed.run ~size ~work ~seconds inp)
        | "rss" -> result (Batch_packed.run ~size ~work ~seconds:infinity ~max_jobs:size.pass_rss inp)
        | "trace" -> result (Batch_packed.trace ~size ~work inp)
        | m -> fail "unknown mode %S" m)
    | "edit-session", _ ->
        let size = if tiny then Edit_session.tiny else Edit_session.full in
        let inp = Edit_session.generate ~size ~seed in
        (match mode with
        | "digest" -> Obj [ ("digest", Str (Edit_session.inputs_digest inp)) ]
        | "setup" -> Obj [ ("setup_s", Num (Edit_session.setup_only inp)) ]
        | "run" -> result (Edit_session.run ~size ~seconds inp)
        | "trace" -> result (Edit_session.trace ~size inp)
        | m -> fail "unknown mode %S" m)
    | w, _ -> fail "unknown workload %S" w
  in
  print_endline (json_to_string out)
