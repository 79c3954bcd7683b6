(* bench_diff — gate on virtual-time regressions in the bench tables.

   Usage: bench_diff.exe BASELINE_DIR FRESH_DIR [MAX_RATIO] [PCTL_RATIO]

   Loads every BENCH_e*.json in BASELINE_DIR, finds the same file in
   FRESH_DIR, and compares the headline virtual-time metrics: every
   numeric cell in a column whose header names nanoseconds ("p50(ns)",
   "total ns", "ns/buffer", ...). A fresh value more than MAX_RATIO
   times the baseline (default 1.25, i.e. a >25% regression) fails the
   run; so does a missing file, table, column or row — baselines are
   regenerated deliberately, never drifted past.

   Latency-percentile columns — headers of the form p<digits>, e.g.
   "p50(ns)", "p99(ns)", "p99.9(ns)" — are the SLO gate and take the
   separate PCTL_RATIO bound (same 1.25 default). Tail percentiles
   amplify queueing shifts that leave sums untouched, so CI can pin
   them tighter (or looser, for an intentionally tail-heavy change)
   without moving the virtual-time bound, via DK_BENCH_PCTL_MAX_RATIO
   in bench_diff.sh.

   The simulation is deterministic, so on an unchanged tree fresh ==
   baseline exactly; the 25% headroom is for intentional cost-model or
   datapath changes, which should land with regenerated baselines and
   an explanation. BENCH_micro.json is wall-clock and never compared.

   JSON comes from the shared reader in json_reader.ml. *)

open Json_reader

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* ---- headline-metric extraction ---- *)

(* A column is virtual-time iff its header contains "ns" as a whole
   word ("p50(ns)", "total ns", "ns/buffer", "cpu ns/msg") — substring
   matching would also catch "inspections". *)
let is_ns_header h =
  let len = String.length h in
  let is_word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  in
  let rec go i =
    if i + 2 > len then false
    else if
      h.[i] = 'n'
      && h.[i + 1] = 's'
      && (i = 0 || not (is_word h.[i - 1]))
      && (i + 2 = len || not (is_word h.[i + 2]))
    then true
    else go (i + 1)
  in
  go 0

(* A column is a latency percentile iff its header is "p" followed by a
   digit ("p50(ns)", "p99.9(ns)") — the SLO columns every experiment
   emits through Report.table. *)
let is_pctl_header h =
  String.length h >= 2 && h.[0] = 'p' && h.[1] >= '0' && h.[1] <= '9'

let as_arr = function Arr l -> l | _ -> raise (Bad "expected array")
let as_str = function Str s -> s | _ -> raise (Bad "expected string")

(* [(metric key, (value, is_percentile))] for every ns-column cell of
   every table. The key embeds the table index, column header and the
   row's first cell (its label), so renumbered rows do not silently
   compare the wrong cells. *)
let headline_metrics path =
  let doc = parse (read_file path) in
  let tables = match member "tables" doc with Some t -> as_arr t | None -> [] in
  List.concat
    (List.mapi
       (fun ti table ->
         let head =
           match member "head" table with
           | Some h -> List.map as_str (as_arr h)
           | None -> []
         in
         let rows =
           match member "rows" table with Some r -> as_arr r | None -> []
         in
         List.concat
           (List.map
              (fun row ->
                let cells = List.map as_str (as_arr row) in
                let label = match cells with l :: _ -> l | [] -> "?" in
                List.concat
                  (List.mapi
                     (fun ci cell ->
                       match List.nth_opt head ci with
                       | Some h when is_ns_header h -> (
                           match float_of_string_opt cell with
                           | Some v ->
                               [
                                 ( Printf.sprintf "t%d[%s].%s" ti label h,
                                   (v, is_pctl_header h) );
                               ]
                           | None -> [])
                       | _ -> [])
                     cells))
              rows))
       tables)

let () =
  let baseline_dir, fresh_dir, max_ratio, pctl_ratio =
    match Array.to_list Sys.argv with
    | [ _; b; f ] -> (b, f, 1.25, 1.25)
    | [ _; b; f; r ] -> (b, f, float_of_string r, float_of_string r)
    | [ _; b; f; r; p ] -> (b, f, float_of_string r, float_of_string p)
    | _ ->
        prerr_endline
          "usage: bench_diff.exe BASELINE_DIR FRESH_DIR [MAX_RATIO] \
           [PCTL_RATIO]";
        exit 2
  in
  let baselines =
    Sys.readdir baseline_dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 7
           && String.sub f 0 7 = "BENCH_e"
           && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  if baselines = [] then (
    Printf.eprintf "bench_diff: no BENCH_e*.json baselines in %s\n" baseline_dir;
    exit 2);
  let failures = ref 0 in
  let compared = ref 0 in
  List.iter
    (fun file ->
      let bpath = Filename.concat baseline_dir file in
      let fpath = Filename.concat fresh_dir file in
      if not (Sys.file_exists fpath) then (
        Printf.eprintf "FAIL %s: fresh run produced no %s\n" file file;
        incr failures)
      else
        let base = headline_metrics bpath in
        let fresh = headline_metrics fpath in
        List.iter
          (fun (key, (bv, pctl)) ->
            match List.assoc_opt key fresh with
            | None ->
                Printf.eprintf "FAIL %s %s: metric missing from fresh run\n"
                  file key;
                incr failures
            | Some (fv, _) ->
                incr compared;
                let allowed = if pctl then pctl_ratio else max_ratio in
                if bv > 0. && fv > bv *. allowed then (
                  Printf.eprintf
                    "FAIL %s %s%s: %.0fns -> %.0fns (%.2fx > %.2fx allowed)\n"
                    file key
                    (if pctl then " [pctl]" else "")
                    bv fv (fv /. bv) allowed;
                  incr failures))
          base)
    baselines;
  Printf.printf "bench_diff: %d headline metrics compared across %d files, %d regression(s)\n"
    !compared (List.length baselines) !failures;
  if !failures > 0 then exit 1
