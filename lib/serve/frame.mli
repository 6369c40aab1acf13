(** The [proxim serve] wire framing: a 4-byte big-endian payload length
    followed by that many bytes of UTF-8 JSON.

    The codec treats the peer as adversarial, mirroring the hardened
    binary-netlist reader: the claimed length is bounds-checked against
    {!max_frame} before any allocation, end-of-file in the middle of a
    header or payload is distinguished from a clean close at a frame
    boundary, and every failure is a typed {!read_error} — never an
    exception escaping into a session thread. *)

val max_frame : int
(** Largest accepted payload, 16 MiB.  Large enough for a full
    million-cell report; small enough that one hostile client cannot
    force an unbounded allocation. *)

type read_error =
  | Closed
      (** the peer closed the connection cleanly, at a frame boundary *)
  | Truncated of string
      (** end-of-file inside a header or payload; carries which *)
  | Oversized of int
      (** the header claimed more than {!max_frame} bytes — the stream
          can no longer be trusted to resynchronize, close it *)

val read_error_to_string : read_error -> string

val read : Unix.file_descr -> (string, read_error) result
(** Read one frame.  Blocking; never raises on EOF (typed errors
    instead).  [Unix_error] from a genuinely broken descriptor still
    propagates — the session loop maps it to a dropped connection. *)

val write : Unix.file_descr -> string -> unit
(** Write one frame (header + payload, complete-write loop).  Raises
    [Invalid_argument] if the payload exceeds {!max_frame}, and
    [Unix.Unix_error (EPIPE, _, _)] when the peer is gone — callers
    treat that as a disconnect, not a crash. *)

(** {1 Reusable replies}

    A daemon session answers many frames; {!out} gives it one payload
    buffer and one staging chunk for all of them, so a reply is written
    straight into the buffer and sent without a per-frame copy. *)

type out
(** A connection's reply writer: a payload buffer plus a 64 KiB chunk
    that carries the header and the payload to the socket.  It belongs
    to one thread. *)

val out : Unix.file_descr -> out

val out_buffer : out -> Buffer.t
(** The payload of the next frame: append to it, then {!send}.  It
    keeps its capacity across frames; since {!send} refuses a payload
    over {!max_frame}, it never holds more than one frame. *)

val send : out -> unit
(** Write the buffer as one frame (header + payload, through the
    staging chunk; a frame that fits the chunk goes out in one write)
    and clear it.  Raises like {!write}: [Invalid_argument] over
    {!max_frame} (the buffer is left as it was), [Unix_error] when the
    peer is gone. *)
