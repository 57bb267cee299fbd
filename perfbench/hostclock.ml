(* The host clock is process CPU time, not wall time: on a shared
   machine wall-clock time per transaction swings by 2x between
   back-to-back runs as the process is descheduled, while CPU time
   stays within a few percent. *)

external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]
external peak_rss_kb : unit -> int = "perfbench_peak_rss_kb" [@@noalloc]

(* Minor-heap words allocated so far; [Gc.minor_words] is unboxed, so
   reading it allocates nothing. *)
let words () = int_of_float (Gc.minor_words ())
