(* The wire protocol of the spanner service.

   Framing: every message — request or response — is one frame,

     <decimal byte length> '\n' <payload>

   The length line is 1..19 ASCII digits (no sign, no leading
   whitespace) and counts exactly the payload bytes after the
   newline.  A length above the negotiated cap is rejected *before*
   any allocation, so a hostile "999999999\n" prefix cannot reserve
   memory; a frame that ends early is a truncation error, not a
   partial parse.

   Request payloads are text: the first line is the command, the
   remainder (after the first '\n', if any) is the body — a formula,
   an algebra expression, or a document.  Responses are also text;
   their first token is the status: [OK] (success / stream header),
   [R] (a window of result rows), [END n] (stream trailer), or
   [ERR code msg] with [code] from the CLI exit-code taxonomy
   (1 evaluation failure, 2 parse/corrupt input, 3 over budget or
   load-shed).

   Everything in this module is pure (strings in, strings or typed
   errors out) — the fuzz harness drives [decode_frames] and
   [parse_request] directly, and the QCheck suite round-trips
   [request_to_string] ∘ [parse_request]. *)

module Limits = Spanner_util.Limits
module Fault = Spanner_util.Fault

let default_max_frame = 4 * 1024 * 1024

(* Fault-injection sites on the two syscall wrappers every byte of
   the protocol moves through (see Spanner_util.Fault): disarmed in
   production, they are one load + never-taken branch. *)
let read_site = Fault.site "serve.read"
let write_site = Fault.site "serve.write"

exception Io_timeout of [ `Idle | `Read | `Write ]

let timeout_to_string = function
  | `Idle -> "idle timeout: no request within the idle window"
  | `Read -> "io timeout: request frame stalled mid-read"
  | `Write -> "io timeout: response write stalled"

(* ------------------------------------------------------------------ *)
(* Framing *)

let corrupt msg = Limits.corrupt ~what:"frame" msg

let encode_frame buf payload =
  Buffer.add_string buf (string_of_int (String.length payload));
  Buffer.add_char buf '\n';
  Buffer.add_string buf payload

let frame payload =
  let buf = Buffer.create (String.length payload + 12) in
  encode_frame buf payload;
  Buffer.contents buf

(* [length_of_digits ~max_frame digits] validates a complete length
   line (shared by the string and conn decoders; the conn reader
   enforces the 19-digit cap while accumulating). *)
let length_of_digits ~max_frame digits =
  if digits = "" then corrupt "empty length line";
  String.iter
    (fun c ->
      if c < '0' || c > '9' then
        corrupt (Printf.sprintf "non-digit byte 0x%02x in length line" (Char.code c)))
    digits;
  match int_of_string_opt digits with
  | None -> corrupt "length overflows"
  | Some len ->
      if len > max_frame then
        corrupt (Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" len max_frame);
      len

(* [decode_length s pos ~max_frame] reads the length line starting at
   [pos]: (payload length, offset just past the '\n').  [None] when
   [s] ends cleanly at [pos] (no more frames). *)
let decode_length s pos ~max_frame =
  let n = String.length s in
  if pos >= n then None
  else begin
    let stop = ref pos in
    while !stop < n && s.[!stop] <> '\n' do incr stop done;
    if !stop - pos > 19 then corrupt "length line longer than 19 digits";
    let len = length_of_digits ~max_frame (String.sub s pos (!stop - pos)) in
    if !stop >= n then corrupt "truncated frame: length line without newline";
    Some (len, !stop + 1)
  end

(* [decode_frames s] splits a byte string into its complete frames;
   raises on any malformation, including a trailing partial frame. *)
let decode_frames ?(max_frame = default_max_frame) s =
  let n = String.length s in
  let rec go pos acc =
    match decode_length s pos ~max_frame with
    | None -> List.rev acc
    | Some (len, body) ->
        if body + len > n then
          corrupt (Printf.sprintf "truncated frame: %d payload bytes missing" (body + len - n));
        go (body + len) (String.sub s body len :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Connection-level framing on raw file descriptors.

   The live server and client speak through a [conn], not stdlib
   channels: it owns the fd and a read buffer, every [Unix.read]/[write]
   retries EINTR and loops partial transfers (a signal during a large
   --body-file send can no longer corrupt a frame), and — when
   configured — per-connection deadlines ride on SO_RCVTIMEO /
   SO_SNDTIMEO.  A deadline that trips surfaces as {!Io_timeout},
   classified [`Idle] (no byte of a new frame yet — a parked
   connection), [`Read] (stalled mid-frame — the slowloris shape) or
   [`Write] (a stream consumer that stopped reading). *)

type conn = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  max_frame : int;
  idle_timeout : float;  (* seconds; 0. = unbounded *)
  io_timeout : float;  (* seconds; 0. = unbounded *)
  mutable cur_rcv : float;  (* last SO_RCVTIMEO written, to skip redundant syscalls *)
}

let conn_of_fd ?(max_frame = default_max_frame) ?(idle_timeout_ms = 0) ?(io_timeout_ms = 0) fd =
  let io_timeout = float_of_int io_timeout_ms /. 1000. in
  (* the write deadline is static: SO_SNDTIMEO's clock restarts on
     every syscall, so it bounds zero-progress stalls, which is the
     failure mode that matters (a consumer that stopped reading) *)
  if io_timeout > 0. then
    (try Unix.setsockopt_float fd SO_SNDTIMEO io_timeout with Unix.Unix_error _ -> ());
  {
    fd;
    rbuf = Bytes.create 65536;
    rpos = 0;
    rlen = 0;
    max_frame;
    idle_timeout = float_of_int idle_timeout_ms /. 1000.;
    io_timeout;
    cur_rcv = 0.;
  }

let conn_fd c = c.fd

let set_rcv c v =
  if v <> c.cur_rcv then begin
    (try Unix.setsockopt_float c.fd SO_RCVTIMEO v with Unix.Unix_error _ -> ());
    c.cur_rcv <- v
  end

(* [refill c ~started] blocks for more bytes; false on EOF.  [started]
   selects the deadline (idle before the first byte of a frame, io
   after) and the timeout classification. *)
let refill c ~started =
  if c.idle_timeout > 0. || c.io_timeout > 0. then
    set_rcv c (if started then c.io_timeout else c.idle_timeout);
  let rec go () =
    match
      let cap = match Fault.io read_site with Fault.Full -> Bytes.length c.rbuf | Fault.Partial -> 1 in
      Unix.read c.fd c.rbuf 0 cap
    with
    | 0 -> false
    | n ->
        c.rpos <- 0;
        c.rlen <- n;
        true
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        raise (Io_timeout (if started then `Read else `Idle))
  in
  go ()

let getc c ~started =
  if c.rpos >= c.rlen then if not (refill c ~started) then raise End_of_file;
  let ch = Bytes.get c.rbuf c.rpos in
  c.rpos <- c.rpos + 1;
  ch

let read_frame_conn c =
  let line = Buffer.create 20 in
  let rec read_length ~started =
    match getc c ~started with
    | '\n' -> Buffer.contents line
    | ch ->
        if Buffer.length line >= 19 then corrupt "length line longer than 19 digits";
        Buffer.add_char line ch;
        read_length ~started:true
    | exception End_of_file ->
        if Buffer.length line = 0 && not started then raise End_of_file
        else corrupt "truncated frame: length line without newline"
  in
  match read_length ~started:false with
  | exception End_of_file -> None
  | digits ->
      let len = length_of_digits ~max_frame:c.max_frame digits in
      let payload = Bytes.create len in
      let filled = ref 0 in
      while !filled < len do
        if c.rpos >= c.rlen then
          if not (refill c ~started:true) then corrupt "truncated frame: payload cut short";
        let take = min (c.rlen - c.rpos) (len - !filled) in
        Bytes.blit c.rbuf c.rpos payload !filled take;
        c.rpos <- c.rpos + take;
        filled := !filled + take
      done;
      Some (Bytes.unsafe_to_string payload)

let write_frame_conn c payload =
  let msg = frame payload in
  let len = String.length msg in
  let off = ref 0 in
  while !off < len do
    match
      let cap =
        match Fault.io write_site with Fault.Full -> len - !off | Fault.Partial -> 1
      in
      Unix.write_substring c.fd msg !off cap
    with
    | n -> off := !off + n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> raise (Io_timeout `Write)
  done

(* ------------------------------------------------------------------ *)
(* Requests *)

type format = Tuples | Count | First

type opts = {
  limit : int option;
  offset : int;
  format : format;
  fuel : int option;
  deadline_ms : int option;
  max_states : int option;
  max_tuples : int option;
}

let default_opts =
  {
    limit = None;
    offset = 0;
    format = Tuples;
    fuel = None;
    deadline_ms = None;
    max_states = None;
    max_tuples = None;
  }

type source = Named of string | Inline of string

type request =
  | Define of { name : string; body : string }
  | Load_doc of { store : string; doc : string; body : string }
  | Load_path of { store : string; path : string }
  | Query of { source : source; store : string; doc : string; opts : opts }
  | Explain of { source : source; opts : opts }
  | Stats
  | Close
  | Shutdown

let perror pos msg = Limits.parse_error ~what:"request" ~pos msg

let max_name_len = 128

let valid_name s =
  let ok = ref (String.length s >= 1 && String.length s <= max_name_len) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> ()
      | _ -> ok := false)
    s;
  !ok

let check_name ~pos what s =
  if not (valid_name s) then
    perror pos
      (Printf.sprintf "invalid %s %S: 1-%d characters from [A-Za-z0-9_.-]" what s max_name_len)

(* Tokenize the command line, keeping each token's byte offset for
   error positions.  Runs of spaces separate tokens; no other
   whitespace is special (the body begins after the first newline). *)
let tokenize line =
  let n = String.length line in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && line.[!i] = ' ' do incr i done;
    if !i < n then begin
      let start = !i in
      while !i < n && line.[!i] <> ' ' do incr i done;
      toks := (start, String.sub line start (!i - start)) :: !toks
    end
  done;
  List.rev !toks

let parse_nat ~pos ~key v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | Some n -> perror pos (Printf.sprintf "option %s=%d: must be non-negative" key n)
  | None -> perror pos (Printf.sprintf "option %s=%S: not an integer" key v)

let parse_opts toks =
  List.fold_left
    (fun (opts, seen) (pos, tok) ->
      match String.index_opt tok '=' with
      | None -> perror pos (Printf.sprintf "expected option key=value, got %S" tok)
      | Some eq ->
          let key = String.sub tok 0 eq in
          let v = String.sub tok (eq + 1) (String.length tok - eq - 1) in
          if List.mem key seen then perror pos (Printf.sprintf "duplicate option %s" key);
          let opts =
            match key with
            | "limit" -> { opts with limit = Some (parse_nat ~pos ~key v) }
            | "offset" -> { opts with offset = parse_nat ~pos ~key v }
            | "fuel" -> { opts with fuel = Some (parse_nat ~pos ~key v) }
            | "deadline-ms" -> { opts with deadline_ms = Some (parse_nat ~pos ~key v) }
            | "max-states" -> { opts with max_states = Some (parse_nat ~pos ~key v) }
            | "max-tuples" -> { opts with max_tuples = Some (parse_nat ~pos ~key v) }
            | "format" -> (
                match v with
                | "tuples" -> { opts with format = Tuples }
                | "count" -> { opts with format = Count }
                | "first" -> { opts with format = First }
                | _ ->
                    perror pos
                      (Printf.sprintf "option format=%S: expected tuples, count or first" v))
            | _ -> perror pos (Printf.sprintf "unknown option %S" key)
          in
          (opts, key :: seen))
    (default_opts, []) toks
  |> fst

let parse_source ~pos tok =
  if tok = "-" then `Body
  else begin
    check_name ~pos "query name" tok;
    `Named tok
  end

(* [parse_request payload] — the hardened front door.  Every failure
   is a typed [Parse] error with a byte offset into the payload. *)
let parse_request payload =
  let line, body =
    match String.index_opt payload '\n' with
    | None -> (payload, "")
    | Some i -> (String.sub payload 0 i, String.sub payload (i + 1) (String.length payload - i - 1))
  in
  let require_body ~pos what =
    if body = "" then perror pos (what ^ " requires a body after the command line")
  in
  let no_body verb = if body <> "" then perror 0 (verb ^ " takes no body") in
  let resolve_source ~pos tok =
    match parse_source ~pos tok with
    | `Named n -> Named n
    | `Body ->
        require_body ~pos "inline query (-)";
        Inline body
  in
  match tokenize line with
  | [] -> perror 0 "empty request"
  | (_, "DEFINE") :: rest -> (
      match rest with
      | [ (pos, name) ] ->
          check_name ~pos "query name" name;
          require_body ~pos "DEFINE";
          Define { name; body }
      | _ -> perror 0 "usage: DEFINE <name> + body")
  | (_, "LOAD") :: rest -> (
      match rest with
      | [ (spos, store); (_, "DOC"); (dpos, doc) ] ->
          check_name ~pos:spos "store name" store;
          check_name ~pos:dpos "document name" doc;
          require_body ~pos:dpos "LOAD ... DOC";
          Load_doc { store; doc; body }
      | [ (spos, store); (_, "PATH"); (_, path) ] ->
          check_name ~pos:spos "store name" store;
          no_body "LOAD ... PATH";
          Load_path { store; path }
      | _ -> perror 0 "usage: LOAD <store> DOC <doc> + body, or LOAD <store> PATH <file>")
  | (_, "QUERY") :: rest -> (
      match rest with
      | (qpos, src) :: (spos, store) :: (dpos, doc) :: opts ->
          let source = resolve_source ~pos:qpos src in
          (if source <> Inline body then no_body "QUERY by name");
          check_name ~pos:spos "store name" store;
          check_name ~pos:dpos "document name" doc;
          Query { source; store; doc; opts = parse_opts opts }
      | _ -> perror 0 "usage: QUERY <name|-> <store> <doc> [option=value...]")
  | (_, "EXPLAIN") :: rest -> (
      match rest with
      | (qpos, src) :: opts ->
          let source = resolve_source ~pos:qpos src in
          (if source <> Inline body then no_body "EXPLAIN by name");
          Explain { source; opts = parse_opts opts }
      | _ -> perror 0 "usage: EXPLAIN <name|-> [option=value...]")
  | [ (_, "STATS") ] ->
      no_body "STATS";
      Stats
  | [ (_, "CLOSE") ] ->
      no_body "CLOSE";
      Close
  | [ (_, "SHUTDOWN") ] ->
      no_body "SHUTDOWN";
      Shutdown
  | (pos, verb) :: _ ->
      perror pos
        (Printf.sprintf
           "unknown command %S (expected DEFINE, LOAD, QUERY, EXPLAIN, STATS, CLOSE or SHUTDOWN)"
           verb)

(* ------------------------------------------------------------------ *)
(* Printing — the canonical form [parse_request] round-trips on *)

let opts_to_tokens o =
  let toks = ref [] in
  let add s = toks := s :: !toks in
  (match o.limit with Some k -> add (Printf.sprintf "limit=%d" k) | None -> ());
  if o.offset > 0 then add (Printf.sprintf "offset=%d" o.offset);
  (match o.format with
  | Tuples -> ()
  | Count -> add "format=count"
  | First -> add "format=first");
  (match o.fuel with Some k -> add (Printf.sprintf "fuel=%d" k) | None -> ());
  (match o.deadline_ms with Some k -> add (Printf.sprintf "deadline-ms=%d" k) | None -> ());
  (match o.max_states with Some k -> add (Printf.sprintf "max-states=%d" k) | None -> ());
  (match o.max_tuples with Some k -> add (Printf.sprintf "max-tuples=%d" k) | None -> ());
  List.rev !toks

let request_to_string r =
  let line tokens = String.concat " " tokens in
  match r with
  | Define { name; body } -> line [ "DEFINE"; name ] ^ "\n" ^ body
  | Load_doc { store; doc; body } -> line [ "LOAD"; store; "DOC"; doc ] ^ "\n" ^ body
  | Load_path { store; path } -> line [ "LOAD"; store; "PATH"; path ]
  | Query { source; store; doc; opts } ->
      let src, body =
        match source with Named n -> (n, "") | Inline b -> ("-", "\n" ^ b)
      in
      line ([ "QUERY"; src; store; doc ] @ opts_to_tokens opts) ^ body
  | Explain { source; opts } ->
      let src, body =
        match source with Named n -> (n, "") | Inline b -> ("-", "\n" ^ b)
      in
      line ([ "EXPLAIN"; src ] @ opts_to_tokens opts) ^ body
  | Stats -> "STATS"
  | Close -> "CLOSE"
  | Shutdown -> "SHUTDOWN"

(* ------------------------------------------------------------------ *)
(* Response statuses *)

(* [status_of_exn e] maps any server-side failure onto the wire status:
   the exit-code taxonomy of Spanner_util.Limits, with untyped
   exceptions conservatively classed as evaluation failures. *)
let status_of_exn = function
  | Limits.Spanner_error e -> (Limits.exit_code e, Limits.to_string e)
  | Spanner_fa.Regex.Parse_error (msg, pos) ->
      (2, Printf.sprintf "parse error at offset %d: %s" pos msg)
  | Invalid_argument msg -> (2, msg)
  | Failure msg -> (1, msg)
  | Fault.Injected site -> (1, Printf.sprintf "injected fault at %s" site)
  | Io_timeout k -> (3, timeout_to_string k)
  | e -> (1, Printexc.to_string e)

(* [fuzz_entry s] — the surface the fuzz harness drives: split [s]
   into frames under a small cap, parse every payload as a request,
   and round-trip the canonical printing of whatever parses. *)
let fuzz_entry s =
  let payloads = decode_frames ~max_frame:65536 s in
  List.iter
    (fun p ->
      let r = parse_request p in
      let r' = parse_request (request_to_string r) in
      if r <> r' then failwith "request print/parse round-trip mismatch")
    payloads
