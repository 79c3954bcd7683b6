type t = {
  table : (int * string, unit) Hashtbl.t;
  by_region : string list Dk_util.Itbl.t;
  mutable count : int;
}

let create () =
  { table = Hashtbl.create 32; by_region = Dk_util.Itbl.create 16; count = 0 }

let register t ~region_id ~device =
  let key = (region_id, device) in
  if not (Hashtbl.mem t.table key) then begin
    Hashtbl.replace t.table key ();
    let existing =
      Option.value ~default:[] (Dk_util.Itbl.find_opt t.by_region region_id)
    in
    Dk_util.Itbl.replace t.by_region region_id (device :: existing);
    t.count <- t.count + 1
  end

let is_registered t ~region_id ~device = Hashtbl.mem t.table (region_id, device)
let registrations t = t.count

let devices_of t ~region_id =
  Option.value ~default:[] (Dk_util.Itbl.find_opt t.by_region region_id)
