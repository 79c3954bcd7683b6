module Demi = Demikernel.Demi
module Types = Demikernel.Types

let log ~demi ~records =
  let rec append fqd i =
    if i > records then (records, None)
    else
      match Demi.sga_alloc demi (Printf.sprintf "record-%03d" i) with
      | Error e -> (i - 1, Some e)
      | Ok sga -> (
          let err =
            match Demi.blocking_push demi fqd sga with
            | Types.Pushed -> (
                match Demi.blocking_pop demi fqd with
                | Types.Popped r ->
                    Demi.sga_free demi r;
                    None
                | Types.Failed e -> Some e
                | Types.Pushed | Types.Accepted _ -> Some `Not_supported)
            | Types.Failed e -> Some e
            | Types.Popped _ | Types.Accepted _ -> Some `Not_supported
          in
          Demi.sga_free demi sga;
          match err with None -> append fqd (i + 1) | Some _ -> (i - 1, err))
  in
  match Demi.fcreate demi "replay.log" with
  | Error e -> (0, Some e)
  | Ok fqd -> append fqd 1
