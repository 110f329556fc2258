(* One connected client: read a request frame, answer, repeat.

   Sessions run as systhreads on the server's main domain and own all
   socket IO.  The split with the scheduler is strict: everything
   heavy about a QUERY — plan-cache probe (and compilation on a
   miss), document decompression, cursor creation (which performs the
   optimizer's eager prepare/materialise work), offset skipping, and
   full drains for count/first formats — runs inside the worker job;
   the session thread only blocks on its ticket and then streams the
   already-prepared cursor.  Pulling the remaining tuples is O(output)
   enumeration work, so a slow reader costs exactly one session
   thread, never a worker domain or another client's latency.

   Response shapes (one frame unless noted):

     OK <info...>                 command succeeded
     ERR <code> <message>         failed; <code> is the exit-code
                                  taxonomy (1 eval, 2 parse, 3 budget)
     OK stream {vars}             query header, then
       R <tuple>                    windowed frames, [window] R-lines
       ...                          per frame, then
     END <n>                        terminal frame: n tuples streamed
                                    (or a terminal ERR mid-stream)

   Admission rejection is indistinguishable on the wire from a blown
   budget by design — both are "the server declined to spend" and
   carry code 3; the message says which. *)

module Limits = Spanner_util.Limits
module Fault = Spanner_util.Fault
open Spanner_core
module Cursor = Spanner_engine.Cursor
module Optimizer = Spanner_engine.Optimizer

(* Probed once per parsed request, before dispatch: with an exn rule
   this models a handler crash (answered ERR 1, session survives). *)
let request_site = Fault.site "session.request"

type ctx = {
  registry : Registry.t;
  scheduler : Scheduler.t;
  window : int;  (* R-lines per stream frame *)
  max_frame : int;
  extra_stats : unit -> string list;  (* server-level STATS lines *)
  draining : unit -> bool;  (* server is draining: stop between requests *)
}

(* What a worker job hands back to the session thread.  The mutex
   handoff through the ticket orders the worker's writes before the
   session's reads, so draining the cursor here is safe even though
   it was built on another domain (Optimizer cursors are effect-free
   and fully prepared at creation). *)
type outcome =
  | Stream of Cursor.t * Variable.Set.t
  | Counted of int
  | First_of of Span_tuple.t option

let pp_vars vs = Format.asprintf "%a" Variable.pp_set vs

let err_frame e =
  let code, msg = Protocol.status_of_exn e in
  Printf.sprintf "ERR %d %s" code msg

(* ------------------------------------------------------------------ *)
(* Request handlers (every one returns the response payload(s) it
   wrote; exceptions are turned into ERR frames by the caller) *)

let handle_define ctx c ~name ~body =
  let plan = Registry.define ctx.registry ~name ~body in
  Protocol.write_frame_conn c
    (Printf.sprintf "OK defined %s schema=%s fused=%d" name
       (pp_vars (Optimizer.schema plan))
       (Optimizer.fused_count plan))

let handle_load_doc ctx c ~store ~doc ~body =
  let bytes, store_nodes = Registry.load_doc ctx.registry ~store ~doc ~text:body in
  Protocol.write_frame_conn c
    (Printf.sprintf "OK loaded %s/%s bytes=%d store_nodes=%d" store doc bytes store_nodes)

let handle_load_path ctx c ~store ~path =
  let docs = Registry.load_path ctx.registry ~store ~path in
  Protocol.write_frame_conn c (Printf.sprintf "OK loaded %s docs=%d" store docs)

(* The worker-side half of QUERY: resolve, build the cursor — in the
   compressed domain when the plan and store shapes allow, else by
   decompressing — and consume whatever the format lets us consume
   eagerly. *)
let query_job ctx source ~store ~doc (opts : Protocol.opts) () =
  let limits = Registry.effective_limits ctx.registry opts in
  let normalized, plan = Registry.plan_normalized ctx.registry source in
  let gauge = Limits.start limits in
  let cursor =
    match Registry.native_cursor ctx.registry ~gauge ~normalized ~store ~doc plan with
    | Some cursor -> cursor
    | None ->
        let text = Registry.doc_text ctx.registry ~gauge ~store ~doc in
        Optimizer.cursor ~limits plan text
  in
  if opts.offset > 0 then Cursor.drop cursor opts.offset;
  let cursor =
    match opts.limit with Some k -> Cursor.take cursor k | None -> cursor
  in
  match opts.format with
  | Protocol.Tuples -> Stream (cursor, Optimizer.schema plan)
  | Protocol.Count -> Counted (Cursor.cardinal cursor)
  | Protocol.First -> First_of (Cursor.next cursor)

let stream ctx c cursor vars =
  Protocol.write_frame_conn c (Printf.sprintf "OK stream %s" (pp_vars vars));
  let buf = Buffer.create 256 in
  let count = ref 0 in
  let flush_window () =
    if Buffer.length buf > 0 then begin
      (* drop the trailing newline: frames carry exact payloads *)
      let payload = Buffer.sub buf 0 (Buffer.length buf - 1) in
      Buffer.clear buf;
      Protocol.write_frame_conn c payload
    end
  in
  match
    let in_window = ref 0 in
    let rec pull () =
      match Cursor.next cursor with
      | None -> ()
      | Some t ->
          Buffer.add_string buf "R ";
          Span_tuple.add_to_buffer buf t;
          Buffer.add_char buf '\n';
          incr count;
          incr in_window;
          if !in_window >= ctx.window then begin
            flush_window ();
            in_window := 0
          end;
          pull ()
    in
    pull ()
  with
  | () ->
      flush_window ();
      Protocol.write_frame_conn c (Printf.sprintf "END %d" !count)
  | exception e ->
      (* a mid-stream failure (budget tripped between pulls) still
         ends the response with a well-formed terminal frame *)
      flush_window ();
      Protocol.write_frame_conn c (err_frame e)

let handle_query ctx c source ~store ~doc opts =
  match Scheduler.run ctx.scheduler (query_job ctx source ~store ~doc opts) with
  | None ->
      let s = Scheduler.stats ctx.scheduler in
      Protocol.write_frame_conn c
        (Printf.sprintf "ERR 3 server overloaded: admission queue full (%d waiting)"
           s.Scheduler.queued)
  | Some (Error e) -> Protocol.write_frame_conn c (err_frame e)
  | Some (Ok (Counted n)) -> Protocol.write_frame_conn c (Printf.sprintf "OK count %d" n)
  | Some (Ok (First_of None)) -> Protocol.write_frame_conn c "OK first"
  | Some (Ok (First_of (Some t))) ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf "OK first ";
      Span_tuple.add_to_buffer buf t;
      Protocol.write_frame_conn c (Buffer.contents buf)
  | Some (Ok (Stream (cursor, vars))) -> stream ctx c cursor vars

let handle_explain ctx c source =
  let plan = Registry.plan ctx.registry source in
  let b = Buffer.create 256 in
  Buffer.add_string b "OK explain\n";
  Printf.bprintf b "original: %s\n" (Algebra.to_string (Optimizer.original plan));
  Printf.bprintf b "rewritten: %s\n" (Algebra.to_string (Optimizer.rewritten plan));
  Printf.bprintf b "schema: %s\n" (pp_vars (Optimizer.schema plan));
  Printf.bprintf b "fused: %d (threshold %d states)\n" (Optimizer.fused_count plan)
    (Optimizer.threshold plan);
  (match Optimizer.compiled plan with
  | Some ct -> Printf.bprintf b "compiled: whole query, %s" (Compiled.describe ct)
  | None -> Buffer.add_string b "compiled: per-node (materialised joins)");
  Protocol.write_frame_conn c (Buffer.contents b)

let cache_line name (c : Registry.cache_stats) =
  Printf.sprintf "%s: hits=%d misses=%d evictions=%d entries=%d/%d" name c.hits
    c.misses c.evictions c.entries c.capacity

let handle_stats ctx c =
  let b = Buffer.create 256 in
  Buffer.add_string b "OK stats\n";
  let counts = Registry.counts ctx.registry in
  Printf.bprintf b "queries: %d\nstores: %d\ndocs: %d\n" counts.Registry.queries
    counts.Registry.stores counts.Registry.docs;
  Printf.bprintf b "%s\n" (cache_line "plan_cache" (Registry.plan_cache_stats ctx.registry));
  Printf.bprintf b "%s\n" (cache_line "doc_cache" (Registry.doc_cache_stats ctx.registry));
  Printf.bprintf b "%s\n"
    (cache_line "engine_cache" (Registry.engine_cache_stats ctx.registry));
  let g = Registry.gate_stats ctx.registry in
  Printf.bprintf b "native_gate: native=%d fallback=%d\n" g.Registry.native
    g.Registry.fallback;
  List.iter
    (fun (i : Registry.store_info) ->
      Printf.bprintf b "store %s: kind=%s docs=%d shards=%d mapped=%d resident=%d\n"
        i.Registry.sname i.Registry.kind i.Registry.sdocs i.Registry.shards
        i.Registry.mapped i.Registry.resident)
    (Registry.stores_info ctx.registry);
  let s = Scheduler.stats ctx.scheduler in
  Printf.bprintf b
    "scheduler: workers=%d capacity=%d submitted=%d completed=%d shed=%d queued=%d \
     max_queued=%d restarts=%d"
    s.Scheduler.workers s.Scheduler.capacity s.Scheduler.submitted
    s.Scheduler.completed s.Scheduler.shed s.Scheduler.queued s.Scheduler.max_queued
    s.Scheduler.restarts;
  List.iter (fun line -> Printf.bprintf b "\n%s" line) (ctx.extra_stats ());
  Protocol.write_frame_conn c (Buffer.contents b)

(* ------------------------------------------------------------------ *)

let handle_request ctx c payload =
  Fault.point request_site;
  match Protocol.parse_request payload with
  | Protocol.Define { name; body } ->
      handle_define ctx c ~name ~body;
      `Continue
  | Protocol.Load_doc { store; doc; body } ->
      handle_load_doc ctx c ~store ~doc ~body;
      `Continue
  | Protocol.Load_path { store; path } ->
      handle_load_path ctx c ~store ~path;
      `Continue
  | Protocol.Query { source; store; doc; opts } ->
      handle_query ctx c source ~store ~doc opts;
      `Continue
  | Protocol.Explain { source; opts = _ } ->
      handle_explain ctx c source;
      `Continue
  | Protocol.Stats ->
      handle_stats ctx c;
      `Continue
  | Protocol.Close ->
      Protocol.write_frame_conn c "OK bye";
      `Closed
  | Protocol.Shutdown ->
      Protocol.write_frame_conn c "OK shutting down";
      `Shutdown_requested

let handle ctx c =
  let rec loop () =
    if ctx.draining () then `Closed
    else
      match Protocol.read_frame_conn c with
      | None -> `Closed
      | exception Protocol.Io_timeout k ->
          (* slowloris / parked connection: tell the client why (best
             effort — it may not be reading) and cut the session *)
          (try Protocol.write_frame_conn c (Printf.sprintf "ERR 3 %s" (Protocol.timeout_to_string k))
           with _ -> ());
          `Timed_out k
      | exception (Limits.Spanner_error _ as e) ->
          (* framing is broken: no way to find the next request
             boundary, so report and hang up *)
          (try Protocol.write_frame_conn c (err_frame e) with _ -> ());
          `Closed
      | Some payload -> (
          match handle_request ctx c payload with
          | `Continue -> loop ()
          | (`Closed | `Shutdown_requested) as final -> final
          | exception Protocol.Io_timeout k ->
              (* the response write stalled: writing an ERR frame
                 would stall the same way, so just cut the session *)
              `Timed_out k
          | exception e ->
              Protocol.write_frame_conn c (err_frame e);
              loop ())
  in
  (* the client vanishing mid-write (Sys_error / EPIPE with SIGPIPE
     ignored, or a reset) is a normal way for a session to end, as is
     an injected fault escaping the protocol layer *)
  try loop ()
  with Sys_error _ | End_of_file | Unix.Unix_error _ | Fault.Injected _ -> `Closed
