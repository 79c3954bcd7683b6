(* Span recorder for the benchmark's traced run.

   A span wraps one call the benchmark makes into a layer's public
   functions. It carries a name, host start/end (monotonic ns), the
   span that caused it and the request id it belongs to. Every span
   feeds per-name aggregates (count, total, self time, self minor
   words); full spans are kept only for a sample of requests. All
   state lives in preallocated arrays, so entering and leaving a span
   allocates nothing and the words a layer allocates are measured
   without the recorder's own. Self = span - the part its children
   cover. With tracing off, [enter]/[leave] are a flag test. *)

let max_names = 64
let names = Array.make max_names ""
let n_names = ref 0

let name s =
  let id = !n_names in
  if id >= max_names then invalid_arg "Trace.name: too many span names";
  names.(id) <- s;
  incr n_names;
  id

let on = ref false
let now () = Int64.to_int (Monotonic_clock.now ())

(* ---- open-span stack ---- *)

let max_depth = 16
let st_name = Array.make max_depth 0
let st_t0 = Array.make max_depth 0
let st_w0 = Array.make max_depth 0.0
let st_child_t = Array.make max_depth 0
let st_child_w = Array.make max_depth 0.0
let st_sample = Array.make max_depth (-1)
let depth = ref 0

(* ---- per-name aggregates ---- *)

let agg_count = Array.make max_names 0
let agg_total = Array.make max_names 0
let agg_self = Array.make max_names 0
let agg_self_words = Array.make max_names 0.0

(* ---- sampled full spans ---- *)

let sample_cap = 65_536
let sp_name = Array.make sample_cap 0
let sp_start = Array.make sample_cap 0
let sp_end = Array.make sample_cap 0
let sp_parent = Array.make sample_cap (-1)
let sp_req = Array.make sample_cap (-1)
let n_sp = ref 0

(* Request id of the calls in progress; -1 outside a request. A request
   is sampled when [req mod sample_every = 0]; spans outside requests
   (round, setup) are always kept. *)
let req = ref (-1)
let sample_every = 64

let set_req r = req := r

let enter id =
  if !on then begin
    let d = !depth in
    st_name.(d) <- id;
    st_child_t.(d) <- 0;
    st_child_w.(d) <- 0.0;
    let r = !req in
    if (r < 0 || r mod sample_every = 0) && !n_sp < sample_cap then begin
      let i = !n_sp in
      n_sp := i + 1;
      sp_name.(i) <- id;
      sp_parent.(i) <- (if d > 0 then st_sample.(d - 1) else -1);
      sp_req.(i) <- r;
      st_sample.(d) <- i
    end
    else st_sample.(d) <- -1;
    depth := d + 1;
    st_w0.(d) <- Gc.minor_words ();
    st_t0.(d) <- now ()
  end

let leave () =
  if !on then begin
    let t1 = now () in
    let w1 = Gc.minor_words () in
    let d = !depth - 1 in
    depth := d;
    let dur = t1 - st_t0.(d) in
    let dw = w1 -. st_w0.(d) in
    let id = st_name.(d) in
    agg_count.(id) <- agg_count.(id) + 1;
    agg_total.(id) <- agg_total.(id) + dur;
    agg_self.(id) <- agg_self.(id) + dur - st_child_t.(d);
    agg_self_words.(id) <- agg_self_words.(id) +. dw -. st_child_w.(d);
    if d > 0 then begin
      st_child_t.(d - 1) <- st_child_t.(d - 1) + dur;
      st_child_w.(d - 1) <- st_child_w.(d - 1) +. dw
    end;
    let i = st_sample.(d) in
    if i >= 0 then begin
      sp_start.(i) <- st_t0.(d);
      sp_end.(i) <- t1
    end
  end

let count id = agg_count.(id)
let total_ns id = agg_total.(id)
let self_ns id = agg_self.(id)
let self_words id = agg_self_words.(id)

(* JSON lines: one per name aggregate, then one per sampled span. *)
let write path ~header =
  let oc = open_out path in
  output_string oc header;
  output_char oc '\n';
  for id = 0 to !n_names - 1 do
    Printf.fprintf oc
      "{\"agg\":%S,\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"self_words\":%.0f}\n"
      names.(id) agg_count.(id) agg_total.(id) agg_self.(id)
      agg_self_words.(id)
  done;
  for i = 0 to !n_sp - 1 do
    Printf.fprintf oc
      "{\"span\":%d,\"name\":%S,\"start\":%d,\"end\":%d,\"parent\":%d,\"req\":%d}\n"
      i names.(sp_name.(i)) sp_start.(i) sp_end.(i) sp_parent.(i) sp_req.(i)
  done;
  close_out oc
