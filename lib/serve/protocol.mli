(** Wire protocol of the spanner service: length-prefixed frames and
    the request grammar.

    Every message is one frame — an ASCII decimal byte count, a
    newline, then exactly that many payload bytes.  Request payloads
    are a command line plus an optional body (everything after the
    first newline); response payloads start with a status token
    ([OK], [R], [END], [ERR]).  The full grammar is documented in
    README.md ("The serve protocol").

    The decoder treats input as hostile: oversized length prefixes
    are rejected before allocation, truncated frames and non-digit
    length bytes raise typed [Corrupt_input] errors, and every
    request-grammar violation (unknown verbs, bad names, duplicate
    options, missing bodies) raises a typed [Parse] error with a byte
    offset — the same {!Spanner_util.Limits.spanner_error} taxonomy
    the rest of the system maps onto exit codes.  All parsing here is
    pure; the fuzz harness drives {!fuzz_entry} with arbitrary
    bytes. *)

(** Default frame-size cap: 4 MiB. *)
val default_max_frame : int

(** {1 Framing} *)

(** [encode_frame buf payload] appends one frame to [buf]. *)
val encode_frame : Buffer.t -> string -> unit

(** [frame payload] is the encoded frame as a string. *)
val frame : string -> string

(** [decode_frames ?max_frame s] splits [s] into its payloads.
    @raise Spanner_util.Limits.Spanner_error ([Corrupt_input]) on any
    malformation, including a trailing partial frame. *)
val decode_frames : ?max_frame:int -> string -> string list

(** {1 Connections}

    Fd-level framing used by the live server and client: EINTR is
    retried, partial reads/writes are looped, and optional
    per-connection deadlines surface as {!Io_timeout}.  The fault
    sites ["serve.read"] and ["serve.write"]
    (see {!Spanner_util.Fault}) sit on these syscall wrappers. *)

(** A deadline tripped: [`Idle] — no byte of a new frame arrived
    within the idle window; [`Read] — a frame stalled mid-read (the
    slowloris shape); [`Write] — the peer stopped draining our
    response. *)
exception Io_timeout of [ `Idle | `Read | `Write ]

val timeout_to_string : [ `Idle | `Read | `Write ] -> string

(** A buffered framed connection over a file descriptor. *)
type conn

(** [conn_of_fd ?max_frame ?idle_timeout_ms ?io_timeout_ms fd] wraps
    [fd].  Timeouts of 0 (the default) mean unbounded; the conn does
    not own [fd] — closing it is the caller's job. *)
val conn_of_fd : ?max_frame:int -> ?idle_timeout_ms:int -> ?io_timeout_ms:int -> Unix.file_descr -> conn

val conn_fd : conn -> Unix.file_descr

(** [read_frame_conn c] reads one frame ([None] on a clean EOF before
    the first length byte).
    @raise Io_timeout when a configured deadline trips.
    @raise Spanner_util.Limits.Spanner_error ([Corrupt_input]) on a
    truncated or malformed frame. *)
val read_frame_conn : conn -> string option

(** [write_frame_conn c payload] writes one frame, looping partial
    writes and retrying EINTR.
    @raise Io_timeout when the send deadline trips. *)
val write_frame_conn : conn -> string -> unit

(** {1 Requests} *)

type format = Tuples | Count | First

(** Per-request evaluation options; every field defaults to the
    server-side setting ({!default_opts} leaves it unset). *)
type opts = {
  limit : int option;  (** stream window: at most this many tuples *)
  offset : int;  (** skip this many tuples first *)
  format : format;
  fuel : int option;
  deadline_ms : int option;
  max_states : int option;
  max_tuples : int option;
}

val default_opts : opts

(** A query source: a registry name, or the request body itself. *)
type source = Named of string | Inline of string

type request =
  | Define of { name : string; body : string }
      (** register the body (a regex formula or an algebra
          expression) under [name] *)
  | Load_doc of { store : string; doc : string; body : string }
      (** compress the body into [store] as document [doc] *)
  | Load_path of { store : string; path : string }
      (** load an SLPDB file from the server's filesystem *)
  | Query of { source : source; store : string; doc : string; opts : opts }
  | Explain of { source : source; opts : opts }
  | Stats
  | Close
  | Shutdown

(** [valid_name s] tests the name charset (1-128 bytes of
    [A-Za-z0-9_.-]). *)
val valid_name : string -> bool

(** [parse_request payload] parses one request payload.
    @raise Spanner_util.Limits.Spanner_error ([Parse]) with a byte
    offset on any grammar violation. *)
val parse_request : string -> request

(** [request_to_string r] prints [r] in the canonical concrete form;
    [parse_request] is its inverse. *)
val request_to_string : request -> string

(** {1 Statuses} *)

(** [status_of_exn e] is the [(code, message)] an [ERR] response
    carries for a failed request: the {!Spanner_util.Limits.exit_code}
    taxonomy (1 evaluation failure, 2 parse/corrupt input, 3 budget),
    untyped exceptions classed as evaluation failures. *)
val status_of_exn : exn -> int * string

(** [fuzz_entry s] decodes [s] as frames, parses every payload and
    round-trips the canonical printing — the fuzz harness target.
    Raises only typed errors on malformed input. *)
val fuzz_entry : string -> unit
