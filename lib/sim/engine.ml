(* The event record is the heap element and the timer handle at once:
   scheduling allocates it and nothing else. Times are unboxed ints;
   the heap holds only queued events, each knowing its own slot. *)
type event = {
  mutable time : int;
  mutable seq : int; (* insertion order: the tie-break among equal times *)
  mutable pos : int; (* heap slot, or -1 when not queued *)
  thunk : unit -> unit;
  owner : t;
}

and t = {
  mutable now_ns : int;
  mutable clock : int64; (* [now_ns] boxed; [now] rebuilds it when stale *)
  mutable heap : event array; (* binary min-heap on (time, seq) *)
  mutable size : int;
  mutable next_seq : int;
  mutable busy : int; (* total ns ever passed to [consume] *)
  filler : event; (* fills empty slots; per engine, so no global state *)
}

type timer = event

let create () =
  let rec t =
    {
      now_ns = 0;
      clock = 0L;
      heap = [||];
      size = 0;
      next_seq = 0;
      busy = 0;
      filler;
    }
  and filler =
    { time = 0; seq = 0; pos = -1; thunk = (fun () -> ()); owner = t }
  in
  t.heap <- Array.make 16 filler;
  t

(* Times and durations saturate at [max_int] ns (2^62 - 1, about 146
   years) instead of wrapping: a wrapped far-future time would read as
   one in the past. Negative int64s read as 0, which every caller
   treats as "now". *)
let horizon = Int64.of_int max_int

let ns_of d =
  if Int64.compare d 0L <= 0 then 0
  else if Int64.compare d horizon >= 0 then max_int
  else Int64.to_int d

(* [a + d] for [a, d >= 0], saturating at [max_int]. *)
let add_ns a d = if d > max_int - a then max_int else a + d

let now t =
  if Int64.to_int t.clock <> t.now_ns then t.clock <- Int64.of_int t.now_ns;
  t.clock

let now_ns t = t.now_ns

let consume t ns =
  let d = ns_of ns in
  if d > 0 then begin
    t.now_ns <- add_ns t.now_ns d;
    t.busy <- add_ns t.busy d
  end

let consumed t = Int64.of_int t.busy

(* (time, seq) is a total order — no two events share a seq — so the
   firing order does not depend on how the sifts below break ties. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

(* Both sifts carry the moving event and fill one hole per level
   instead of swapping; every event written into a slot learns it. *)
let place heap i ev =
  heap.(i) <- ev;
  ev.pos <- i

let rec sift_up heap i ev =
  if i = 0 then place heap 0 ev
  else
    let p = (i - 1) / 2 in
    let pe = heap.(p) in
    if before ev pe then begin
      place heap i pe;
      sift_up heap p ev
    end
    else place heap i ev

let rec sift_down heap n i ev =
  let l = (2 * i) + 1 in
  if l >= n then place heap i ev
  else
    let c = if l + 1 < n && before heap.(l + 1) heap.(l) then l + 1 else l in
    let ce = heap.(c) in
    if before ce ev then begin
      place heap i ce;
      sift_down heap n c ev
    end
    else place heap i ev

(* Put [ev] into the hole at [i] of an [n]-event heap, whichever way
   its key moves it. *)
let fill heap n i ev =
  if i > 0 && before ev heap.((i - 1) / 2) then sift_up heap i ev
  else sift_down heap n i ev

let grow t =
  let heap = Array.make (2 * Array.length t.heap) t.filler in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap
  [@@hot.alloc "amortized doubling of the preallocated event heap"]

(* Queue an unqueued event under a fresh seq. *)
let push t ev time =
  ev.time <- time;
  ev.seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then grow t;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) ev

(* Take the event at slot [i] out; the last event fills its slot. *)
let remove t i =
  t.heap.(i).pos <- -1;
  let n = t.size - 1 in
  let last = t.heap.(n) in
  t.heap.(n) <- t.filler;
  t.size <- n;
  if i < n then fill t.heap n i last

let make t thunk = { time = 0; seq = 0; pos = -1; thunk; owner = t }
  [@@hot.alloc
    "the event record is the scheduler's unit of pending work — \
     scheduling is what this sim allocates for"]

let schedule t time thunk =
  let ev = make t thunk in
  push t ev time;
  ev

let at t time thunk =
  let time = ns_of time in
  schedule t (if time < t.now_ns then t.now_ns else time) thunk

let after t ns thunk = schedule t (add_ns t.now_ns (ns_of ns)) thunk

let timer = make

let cancel ev = if ev.pos >= 0 then remove ev.owner ev.pos

let rearm ev ns =
  cancel ev;
  let t = ev.owner in
  push t ev (add_ns t.now_ns (ns_of ns))

let rearm_at ev time =
  cancel ev;
  let t = ev.owner in
  push t ev (if time < t.now_ns then t.now_ns else time)

let scheduled ev = ev.pos >= 0

let pending t = t.size

let next_at t = if t.size = 0 then None else Some (Int64.of_int t.heap.(0).time)

(* The top leaves the heap before its thunk runs, so the thunk may
   re-arm its own handle. *)
let step t =
  if t.size = 0 then false
  else begin
    let ev = t.heap.(0) in
    remove t 0;
    if ev.time > t.now_ns then t.now_ns <- ev.time;
    ev.thunk ();
    true
  end

let run t = while step t do () done

let run_until t pred =
  let rec loop () =
    if pred () then true
    else if step t then loop ()
    else false
  in
  loop ()

(* ---- multi-clock scheduling ----
   A group of engines models per-core shards, each with its own virtual
   clock. Advancing whichever engine has the globally earliest pending
   event (ties to the lowest index) keeps cross-engine causality: an
   event scheduled from engine A onto engine B at a timestamp >= A's
   now can never be overtaken by B running ahead of it. *)

(* The index of the engine whose top event is earliest, or -1 when all
   are drained. Head times are compared in place; strict [<] keeps the
   first minimum, so ties go to the lowest index. *)
let rec group_scan engines i best =
  if i >= Array.length engines then best
  else begin
    let e = engines.(i) in
    if
      e.size > 0
      && (best < 0 || e.heap.(0).time < engines.(best).heap.(0).time)
    then group_scan engines (i + 1) i
    else group_scan engines (i + 1) best
  end

let step_group engines =
  let i = group_scan engines 0 (-1) in
  i >= 0 && step engines.(i)

let run_group engines = while step_group engines do () done

let rec run_through t deadline =
  if t.size > 0 && t.heap.(0).time <= deadline then begin
    ignore (step t);
    run_through t deadline
  end

let run_for t ns =
  let deadline = add_ns t.now_ns (ns_of ns) in
  run_through t deadline;
  if t.now_ns < deadline then t.now_ns <- deadline
