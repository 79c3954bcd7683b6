(* The event record is the heap element and the timer handle at once:
   scheduling allocates it and nothing else. *)
type event = {
  time : int64;
  seq : int; (* insertion order: the tie-break among equal times *)
  mutable cancelled : bool; (* also set once fired *)
  thunk : unit -> unit;
  owner : t;
}

and t = {
  mutable clock : int64;
  mutable heap : event array; (* binary min-heap on (time, seq) *)
  mutable size : int;
  mutable next_seq : int;
  mutable live : int; (* scheduled and not cancelled *)
  mutable busy : int64; (* total ns ever passed to [consume] *)
  filler : event; (* fills empty slots; per engine, so no global state *)
}

type timer = event

let create () =
  let rec t =
    {
      clock = 0L;
      heap = [||];
      size = 0;
      next_seq = 0;
      live = 0;
      busy = 0L;
      filler;
    }
  and filler =
    { time = 0L; seq = 0; cancelled = true; thunk = (fun () -> ()); owner = t }
  in
  t.heap <- Array.make 16 filler;
  t

let now t = t.clock

let consume t ns =
  if Int64.compare ns 0L > 0 then begin
    t.clock <- Int64.add t.clock ns;
    t.busy <- Int64.add t.busy ns
  end

let consumed t = t.busy

(* (time, seq) is a total order — no two events share a seq — so the
   firing order does not depend on how the sifts below break ties. *)
let before a b =
  let c = Int64.compare a.time b.time in
  c < 0 || (c = 0 && a.seq < b.seq)

(* Both sifts carry the moving event and fill one hole per level
   instead of swapping. *)
let rec sift_up heap i ev =
  if i = 0 then heap.(0) <- ev
  else
    let p = (i - 1) / 2 in
    let pe = heap.(p) in
    if before ev pe then begin
      heap.(i) <- pe;
      sift_up heap p ev
    end
    else heap.(i) <- ev

let rec sift_down heap n i ev =
  let l = (2 * i) + 1 in
  if l >= n then heap.(i) <- ev
  else
    let c = if l + 1 < n && before heap.(l + 1) heap.(l) then l + 1 else l in
    let ce = heap.(c) in
    if before ce ev then begin
      heap.(i) <- ce;
      sift_down heap n c ev
    end
    else heap.(i) <- ev

let grow t =
  let heap = Array.make (2 * Array.length t.heap) t.filler in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap
  [@@hot.alloc "amortized doubling of the preallocated event heap"]

(* Remove the top; the caller has read it. *)
let remove_top t =
  let n = t.size - 1 in
  let last = t.heap.(n) in
  t.heap.(n) <- t.filler;
  t.size <- n;
  if n > 0 then sift_down t.heap n 0 last

let at t time thunk =
  let time = if Int64.compare time t.clock < 0 then t.clock else time in
  let ev = { time; seq = t.next_seq; cancelled = false; thunk; owner = t } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then grow t;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) ev;
  t.live <- t.live + 1;
  ev
  [@@hot.alloc
    "the event record is the scheduler's unit of pending work — \
     scheduling is what this sim allocates for"]

let after t ns thunk = at t (Int64.add t.clock (Int64.max 0L ns)) thunk

(* The event stays in the heap until it reaches the top; only the live
   count is adjusted here so [pending] stays exact. *)
let cancel ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    ev.owner.live <- ev.owner.live - 1
  end

let pending t = t.live

(* Discard cancelled events sitting at the top so peeks see the next
   event that will actually run. *)
let rec drop_cancelled t =
  if t.size > 0 && t.heap.(0).cancelled then begin
    remove_top t;
    drop_cancelled t
  end

let next_at t =
  drop_cancelled t;
  if t.size = 0 then None else Some t.heap.(0).time

(* Directly recursive (no inner loop closure): [step] runs once per
   simulated event, so a per-call closure would be heap churn on the
   hottest loop in the tree (dk-hot: hot-alloc). *)
let rec step t =
  if t.size = 0 then false
  else begin
    let ev = t.heap.(0) in
    remove_top t;
    if ev.cancelled then step t
    else begin
      t.live <- t.live - 1;
      (* Mark fired so a later [cancel] on this timer is a no-op. *)
      ev.cancelled <- true;
      if Int64.compare ev.time t.clock > 0 then t.clock <- ev.time;
      ev.thunk ();
      true
    end
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
    drop_cancelled e;
    if
      e.size > 0
      && (best < 0
         || Int64.compare e.heap.(0).time engines.(best).heap.(0).time < 0)
    then group_scan engines (i + 1) i
    else group_scan engines (i + 1) best
  end

let step_group engines =
  let i = group_scan engines 0 (-1) in
  i >= 0 && step engines.(i)

let run_group engines = while step_group engines do () done

let rec run_through t deadline =
  drop_cancelled t;
  if t.size > 0 && Int64.compare t.heap.(0).time deadline <= 0 then begin
    ignore (step t);
    run_through t deadline
  end

let run_for t ns =
  let deadline = Int64.add t.clock (Int64.max 0L ns) in
  run_through t deadline;
  if Int64.compare t.clock deadline < 0 then t.clock <- deadline
