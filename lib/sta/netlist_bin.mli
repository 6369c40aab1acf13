(** A length-prefixed binary netlist format with streaming I/O.

    The text format ({!Netlist_text}) is the human interface; this is the
    scale interface.  A million-cell design serializes to a few tens of
    megabytes and reads back in a single pass — no line scanner, no
    tokenizing, no intermediate whole-file string.  Layout (all integers
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
    vocabulary.  The writer streams cells straight to the channel and the
    reader streams them back, so peak memory is the design itself plus
    O(1) scratch. *)

val magic : string
(** ["PXNB"]. *)

val version : int
(** Format version written by {!write_channel} (currently 1). *)

val file_is_binary : string -> bool
(** [true] iff the file exists, is readable, and starts with {!magic} —
    the sniff the CLI uses to route a netlist argument to the right
    parser.  Never raises. *)

val string_is_binary : string -> bool
(** [true] iff the in-memory content starts with {!magic}. *)

val write_channel :
  ?thresholds:Proxim_vtc.Vtc.thresholds ->
  name:string ->
  Design.t ->
  out_channel ->
  unit
(** Serialize [design] (with its design [name], and the measurement
    [thresholds] when the source carried them) to [oc].  The channel is
    flushed but not closed. *)

val write_file :
  ?thresholds:Proxim_vtc.Vtc.thresholds ->
  name:string ->
  Design.t ->
  string ->
  unit

val read_channel :
  Proxim_gates.Tech.t ->
  in_channel ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result
(** Parse one binary netlist from [ic].  Structural validation runs
    through {!Design.create}, so cycles, double drivers and arity
    mismatches are reported with the same messages as the text path.
    Truncated input, a bad magic, an unsupported version or a corrupt
    record all come back as [Error] — never an exception.

    The decoder treats the input as adversarial (the [proxim serve]
    daemon parses client-supplied bytes through it): varints are
    rejected before they can overflow OCaml's 63-bit [int] (9
    continuation bytes, or a final byte setting bit 62, are [Error],
    never a negative length), every decoded count is bounds-checked
    before any allocation sized by it, and long strings are read in
    bounded chunks so a short file claiming a 256 MB payload fails at
    end-of-file instead of forcing the allocation up front. *)

val read_file :
  Proxim_gates.Tech.t ->
  string ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result

val load_file :
  Proxim_gates.Tech.t ->
  string ->
  (string * Design.t * Proxim_vtc.Vtc.thresholds option, string) result
(** The one netlist loader: a file starting with {!magic} is read with
    {!read_file}, anything else is parsed as text together with its
    [thresholds] directive ({!Netlist_text.parse_with_thresholds}).  An
    unreadable file is an [Error] carrying the system message. *)
