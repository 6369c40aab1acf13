(** A length-prefixed binary netlist format.

    The text format ({!Netlist_text}) is the human interface; this is the
    scale interface.  A million-cell design serializes to a few tens of
    megabytes and reads back in a single pass — no line scanner, no
    tokenizing.  Layout (all integers
    are unsigned LEB128 varints, all strings are varint-length-prefixed
    bytes, floats are IEEE-754 binary64 little-endian):

    {v
    "PXNB"  magic
    u8      format version (currently 1)
    string  design name
    u8      thresholds flag; if 1: f64 vil, f64 vih, f64 vdd
    varint  gate-table size, then that many gate-name strings
    varint  primary-input count, then that many net-name strings
    varint  primary-output count, then that many net-name strings
    varint  cell count, then per cell:
              varint gate-table index
              string cell name
              string output net
              varint input count, then that many input-net strings
    u8      0xED end marker
    v}

    Gate names go through {!Proxim_gates.Gate.of_name} on read, exactly
    like the text parser, so the two formats accept the same gate
    vocabulary.  The writer streams cells straight to the channel.  The
    reader takes the whole file into one string the size of the file and
    decodes it with a cursor: net names go from that buffer straight into
    a {!Design.builder}, which hashes each once and copies a name only the
    first time it is seen, so every pin of a net shares one string.  Peak
    memory is the design plus the file's bytes. *)

val magic : string
(** ["PXNB"]. *)

val version : int
(** Format version written by {!write_file} (currently 1). *)

val file_is_binary : string -> bool
(** [true] iff the file exists, is readable, and starts with {!magic} —
    the sniff the CLI uses to route a netlist argument to the right
    parser.  Never raises. *)

val write_file :
  ?thresholds:Proxim_vtc.Vtc.thresholds ->
  name:string ->
  Design.t ->
  string ->
  unit

val of_string :
  Proxim_gates.Tech.t ->
  string ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result
(** Decode one binary netlist held in a string.  Structural validation
    is {!Design.finish}'s, so cycles, double drivers and arity
    mismatches are reported with the same messages, in the same order,
    as the text path; it runs only once the whole file has decoded, so a
    file with both a format defect and a structural one reports the
    format defect.  Truncated input, a bad magic, an unsupported version
    or a corrupt record all come back as [Error] — never an exception.

    The decoder treats the input as adversarial (the [proxim serve]
    daemon parses client-supplied bytes through it): varints are
    rejected before they can overflow OCaml's 63-bit [int] (9
    continuation bytes, or a final byte setting bit 62, are [Error],
    never a negative length), and every decoded count and length is
    checked against its cap and then against the bytes left before
    anything is sized by it — each record takes at least one byte, so a
    30-byte file claiming 2^28 cells is an [Error] that allocated
    nothing for them. *)

val read_file :
  Proxim_gates.Tech.t ->
  string ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result
(** {!of_string} of the file's bytes; an unreadable file is an [Error]
    carrying the system message.  Records a ["netlist_bin.read"] trace
    span (category ["sta"]) that encloses the ["design.create"] one. *)

val load_file :
  Proxim_gates.Tech.t ->
  string ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result
(** The one netlist loader: a file starting with {!magic} is read with
    {!read_file}, anything else is parsed as text together with its
    [thresholds] directive ({!Netlist_text.parse_with_thresholds}).  An
    unreadable file is an [Error] carrying the system message. *)
