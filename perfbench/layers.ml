(* Per-layer host cost, measured from outside the library: a timing
   wrapper around each call into a layer records calls, CPU time and
   minor words.  Nested timed calls (a harness callback that calls
   [set_range]) are charged to the innermost one, so the self times of
   all layers plus the untimed residual add up to the measured window. *)

type acc = { name : string; mutable calls : int; mutable ns : int; mutable words : int }

let registry : acc list ref = ref []

let acc name =
  let a = { name; calls = 0; ns = 0; words = 0 } in
  registry := a :: !registry;
  a

let reset () =
  List.iter
    (fun a ->
      a.calls <- 0;
      a.ns <- 0;
      a.words <- 0)
    !registry

let all () = List.rev !registry
let snapshot () = List.map (fun a -> (a.name, a.calls, a.ns, a.words)) (all ())

(* The timing stack: slot [d] holds the start of the open call at depth
   [d] and the time its timed children have used so far.  Arrays, not a
   list of frames, so entering and leaving allocate nothing. *)
let max_depth = 16
let depth = ref 0
let start_ns = Array.make max_depth 0
let start_words = Array.make max_depth 0
let child_ns = Array.make max_depth 0
let child_words = Array.make max_depth 0

let enter () =
  let d = !depth + 1 in
  depth := d;
  child_ns.(d) <- 0;
  child_words.(d) <- 0;
  start_words.(d) <- Hostclock.words ();
  start_ns.(d) <- Hostclock.cpu_ns ()

let leave a =
  let t1 = Hostclock.cpu_ns () in
  let w1 = Hostclock.words () in
  let d = !depth in
  let dt = t1 - start_ns.(d) and dw = w1 - start_words.(d) in
  a.calls <- a.calls + 1;
  a.ns <- a.ns + dt - child_ns.(d);
  a.words <- a.words + dw - child_words.(d);
  depth := d - 1;
  child_ns.(d - 1) <- child_ns.(d - 1) + dt;
  child_words.(d - 1) <- child_words.(d - 1) + dw

let time a f x =
  enter ();
  match f x with
  | r ->
      leave a;
      r
  | exception e ->
      leave a;
      raise e

let begin_ = acc "core.begin"
let set_range = acc "core.set_range"
let write = acc "core.write"
let read = acc "core.read"
let commit = acc "core.commit"
let abort = acc "core.abort"
let recover = acc "core.recover"
let crash = acc "cluster.crash"
let restart = acc "cluster.restart"
let prepare = acc "harness.prepare"
let declare = acc "harness.declare"
let apply = acc "harness.apply"
(* The Multi_client driver's own time once its callbacks are taken out:
   begin, validate, commit and group flush, which it calls directly. *)
let driver = acc "core.commit_flush"

module type ENGINE = sig
  include
    Perseas.Txn_intf.S
      with type t = Perseas.t
       and type segment = Perseas.segment
       and type txn = Perseas.txn

  val traced : bool
end

module Plain = struct
  include Perseas.Engine

  let traced = false
end

module P = Perseas.Engine

module Timed = struct
  type t = P.t
  type segment = P.segment
  type txn = P.txn

  let name = P.name
  let traced = true
  let malloc = P.malloc
  let find_segment = P.find_segment
  let init_done = P.init_done
  let begin_transaction t = time begin_ P.begin_transaction t

  let set_range txn seg ~off ~len =
    enter ();
    match P.set_range txn seg ~off ~len with
    | () -> leave set_range
    | exception e ->
        leave set_range;
        raise e

  let commit txn = time commit P.commit txn
  let abort txn = time abort P.abort txn

  let write t seg ~off b =
    enter ();
    match P.write t seg ~off b with
    | () -> leave write
    | exception e ->
        leave write;
        raise e

  let read t seg ~off ~len =
    enter ();
    match P.read t seg ~off ~len with
    | r ->
        leave read;
        r
    | exception e ->
        leave read;
        raise e
end
