(* A fixed reference computation that measures how fast this machine
   runs right now. Neighbours on a shared host slow every program down
   by a factor that drifts over seconds; host timings multiplied by
   [nominal_ns / current reference time] are comparable across runs made
   under different contention.

   The reference is a small discrete-event loop over standard-library
   structures only — a binary heap of timed events, a hash table of
   4,096 keys, a 64-byte copy and two short-lived allocations per event
   — so it leans on the machine the way the simulator does, yet no
   change to the repository's code can speed it up. Its allocations
   die young, so it does not grow or retain the heap. *)

(* The scale normalised figures are given in: host time as if one
   reference run took this long. *)
let nominal_ns = 3_000_000.0

let steps = 20_000
let cap = 1024
let keys = 4096
let hk = Array.make cap 0
let hv = Array.make cap 0
let hn = ref 0

let push t k =
  let i = ref !hn in
  incr hn;
  while !i > 0 && hk.((!i - 1) / 2) > t do
    let p = (!i - 1) / 2 in
    hk.(!i) <- hk.(p);
    hv.(!i) <- hv.(p);
    i := p
  done;
  hk.(!i) <- t;
  hv.(!i) <- k

(* Remove the earliest event; returns its key, its time in [last_t]. *)
let last_t = ref 0

let pop () =
  let k = hv.(0) in
  last_t := hk.(0);
  decr hn;
  let lt = hk.(!hn) and lk = hv.(!hn) in
  let i = ref 0 and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 in
    if l >= !hn then fin := true
    else begin
      let c = if l + 1 < !hn && hk.(l + 1) < hk.(l) then l + 1 else l in
      if hk.(c) < lt then begin
        hk.(!i) <- hk.(c);
        hv.(!i) <- hv.(c);
        i := c
      end
      else fin := true
    end
  done;
  hk.(!i) <- lt;
  hv.(!i) <- lk;
  k

type ev = { key : int; at : int; data : Bytes.t }

let table =
  let t = Hashtbl.create keys in
  for k = 0 to keys - 1 do
    Hashtbl.replace t k 0
  done;
  t

let buf = Bytes.make 4096 'x'

let run () =
  hn := 0;
  for k = 0 to 255 do
    push k (k * 16)
  done;
  let acc = ref 0 in
  for _ = 1 to steps do
    let k = pop () in
    let e = { key = k; at = !last_t; data = Bytes.sub buf (k land 1023) 64 } in
    Hashtbl.replace table e.key (Hashtbl.find table e.key + 1);
    Bytes.blit e.data 0 buf ((e.key * 7) land 4031) 64;
    acc := !acc + e.at;
    push (e.at + 1 + (k land 7)) (((k * 1103515245) + 12345) land (keys - 1))
  done;
  !acc

let sink = ref 0

let timed () =
  let t0 = Trace.now () in
  sink := !sink lxor run ();
  float_of_int (Trace.now () - t0)

(* Host ns one reference run takes now: the median of three, after an
   untimed run that brings its data back into the caches the workload
   just evicted. *)
let sample () =
  sink := !sink lxor run ();
  let a = timed () in
  let b = timed () in
  let c = timed () in
  Float.max (Float.min a b) (Float.min (Float.max a b) c)
