(** Host clocks that allocate nothing on the OCaml heap. *)

val cpu_ns : unit -> int
(** Process CPU time (user + system), nanoseconds. *)

val peak_rss_kb : unit -> int
(** Peak resident set of the process so far (VmHWM), KiB. *)

val words : unit -> int
(** Minor-heap words allocated by this domain so far. *)
