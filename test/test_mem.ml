(* Tests for dk_mem: arena (buddy), buffer lifecycle/free-protection,
   sga, registry, manager. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

module Region = Dk_mem.Region
module Arena = Dk_mem.Arena
module Buffer = Dk_mem.Buffer
module Sga = Dk_mem.Sga
module Registry = Dk_mem.Registry
module Manager = Dk_mem.Manager

(* ---------------- Arena ---------------- *)

let arena_basic () =
  let reg = Region.create ~id:0 ~size:1024 in
  let a = Arena.create ~min_block:64 reg in
  match Arena.alloc a 100 with
  | None -> Alcotest.fail "alloc failed"
  | Some b ->
      check_int "rounded to 128" 128 b.Arena.size;
      check_int "live" 128 (Arena.live_bytes a);
      Arena.free a b;
      check_int "live after free" 0 (Arena.live_bytes a);
      check_bool "quiescent" true (Arena.is_quiescent a)

let arena_full () =
  let reg = Region.create ~id:0 ~size:256 in
  let a = Arena.create ~min_block:64 reg in
  let b1 = Arena.alloc a 256 in
  check_bool "got whole region" true (b1 <> None);
  check_bool "now empty" true (Arena.alloc a 1 = None);
  (match b1 with Some b -> Arena.free a b | None -> ());
  check_bool "free restores" true (Arena.alloc a 1 <> None)

let arena_too_big () =
  let reg = Region.create ~id:0 ~size:256 in
  let a = Arena.create reg in
  check_bool "oversize alloc fails" true (Arena.alloc a 512 = None)

let arena_double_free () =
  let reg = Region.create ~id:0 ~size:256 in
  let a = Arena.create ~min_block:64 reg in
  match Arena.alloc a 64 with
  | None -> Alcotest.fail "alloc"
  | Some b ->
      Arena.free a b;
      Alcotest.check_raises "double free"
        (Invalid_argument "Arena.free: not an outstanding block (double free?)")
        (fun () -> Arena.free a b)

let arena_coalesce () =
  let reg = Region.create ~id:0 ~size:256 in
  let a = Arena.create ~min_block:64 reg in
  (* carve into four 64B blocks, then free all; a 256B alloc must succeed *)
  let blocks = List.filter_map (fun _ -> Arena.alloc a 64) [ 1; 2; 3; 4 ] in
  check_int "four blocks" 4 (List.length blocks);
  List.iter (Arena.free a) blocks;
  check_bool "coalesced back to 256" true (Arena.alloc a 256 <> None)

(* Property: outstanding blocks never overlap and stay in range. *)
let arena_no_overlap =
  QCheck.Test.make ~name:"arena blocks never overlap" ~count:100
    QCheck.(small_list (pair (int_range 1 300) bool))
    (fun script ->
      let reg = Region.create ~id:0 ~size:4096 in
      let a = Arena.create ~min_block:64 reg in
      let live = ref [] in
      List.iter
        (fun (size, do_free) ->
          if do_free && !live <> [] then begin
            match !live with
            | b :: rest ->
                Arena.free a b;
                live := rest
            | [] -> ()
          end
          else
            match Arena.alloc a size with
            | Some b -> live := b :: !live
            | None -> ())
        script;
      (* check pairwise disjoint *)
      let ranges =
        List.map (fun b -> (b.Arena.offset, b.Arena.offset + b.Arena.size)) !live
      in
      let rec disjoint = function
        | [] -> true
        | (s1, e1) :: rest ->
            List.for_all (fun (s2, e2) -> e1 <= s2 || e2 <= s1) rest
            && disjoint rest
      in
      let in_range = List.for_all (fun (s, e) -> s >= 0 && e <= 4096) ranges in
      disjoint ranges && in_range)

(* Property: alloc/free-all always returns the arena to quiescent. *)
let arena_quiescent_prop =
  QCheck.Test.make ~name:"free-all restores quiescence" ~count:100
    QCheck.(small_list (int_range 1 500))
    (fun sizes ->
      let reg = Region.create ~id:0 ~size:8192 in
      let a = Arena.create ~min_block:64 reg in
      let blocks = List.filter_map (Arena.alloc a) sizes in
      List.iter (Arena.free a) blocks;
      Arena.is_quiescent a)

(* ---------------- Buffer ---------------- *)

let buffer_unmanaged () =
  let b = Buffer.of_string "hello" in
  check_int "len" 5 (Buffer.length b);
  check_str "contents" "hello" (Buffer.to_string b);
  Buffer.free b;
  (* unmanaged: free is a reference drop only; double free still traps *)
  Alcotest.check_raises "double free"
    (Invalid_argument "Buffer.free: double free of a view") (fun () ->
      Buffer.free b)

let managed_buffer released =
  let store = Bytes.make 64 '\000' in
  Buffer.make_managed ~store ~off:0 ~len:64 ~region_id:7
    ~release:(fun () -> released := true)
    ()

let buffer_release_on_free () =
  let released = ref false in
  let b = managed_buffer released in
  check_bool "not yet" false !released;
  Buffer.free b;
  check_bool "released" true !released

let buffer_free_protection () =
  (* The §4.5 behaviour: free during I/O defers the release. *)
  let released = ref false in
  let b = managed_buffer released in
  Buffer.io_hold b;
  Buffer.free b;
  check_bool "deferred, not released" false !released;
  check_bool "deferral recorded" true (Buffer.was_deferred b);
  Buffer.io_release b;
  check_bool "released after IO" true !released

let buffer_io_after_release_fails () =
  let released = ref false in
  let b = managed_buffer released in
  Buffer.free b;
  Alcotest.check_raises "io_hold after release"
    (Invalid_argument "Buffer.io_hold: buffer already released") (fun () ->
      Buffer.io_hold b)

let buffer_views_share_lifecycle () =
  let released = ref false in
  let b = managed_buffer released in
  let v = Buffer.sub b 8 16 in
  check_int "view length" 16 (Buffer.length v);
  Buffer.free b;
  check_bool "view keeps allocation alive" false !released;
  Buffer.free v;
  check_bool "last view releases" true !released

let buffer_view_aliasing () =
  let b = Buffer.of_string "abcdefgh" in
  let v = Buffer.sub b 2 4 in
  check_str "view" "cdef" (Buffer.to_string v);
  Buffer.set v 0 'X';
  check_str "writes through" "abXdefgh" (Buffer.to_string b)

let buffer_blits () =
  let a = Buffer.of_string "aaaa" and b = Buffer.of_string "bbbb" in
  Buffer.blit a 0 b 1 2;
  check_str "blit" "baab" (Buffer.to_string b);
  Buffer.blit_from_string "XY" 0 a 2 2;
  check_str "from string" "aaXY" (Buffer.to_string a);
  let dst = Bytes.make 2 '.' in
  Buffer.blit_to_bytes a 2 dst 0 2;
  check_str "to bytes" "XY" (Bytes.to_string dst)

let buffer_bounds () =
  let b = Buffer.of_string "abc" in
  Alcotest.check_raises "sub oob" (Invalid_argument "Buffer.sub") (fun () ->
      ignore (Buffer.sub b 1 5));
  Alcotest.check_raises "get oob" (Invalid_argument "Buffer.get") (fun () ->
      ignore (Buffer.get b 3))

let buffer_multiple_io_holds () =
  let released = ref false in
  let b = managed_buffer released in
  Buffer.io_hold b;
  Buffer.io_hold b;
  Buffer.free b;
  Buffer.io_release b;
  check_bool "one hold remains" false !released;
  Buffer.io_release b;
  check_bool "released" true !released

(* ---------------- Sga ---------------- *)

let sga_basic () =
  let sga = Sga.of_strings [ "hello"; " "; "world" ] in
  check_int "segments" 3 (Sga.segment_count sga);
  check_int "length" 11 (Sga.length sga);
  check_str "concat" "hello world" (Sga.to_string sga)

let sga_copy_into () =
  let sga = Sga.of_strings [ "ab"; "cd" ] in
  let dst = Bytes.make 6 '.' in
  check_int "copied" 4 (Sga.copy_into sga dst 1);
  check_str "placed" ".abcd." (Bytes.to_string dst);
  Alcotest.check_raises "too small"
    (Invalid_argument "Sga.copy_into: destination too small") (fun () ->
      ignore (Sga.copy_into sga (Bytes.create 3) 0))

let sga_sub_string () =
  let sga = Sga.of_strings [ "abc"; "def"; "ghi" ] in
  check_str "cross boundary" "cdefg" (Sga.sub_string sga 2 5);
  check_str "exact segment" "def" (Sga.sub_string sga 3 3);
  check_str "empty" "" (Sga.sub_string sga 4 0)

let sga_equal_segmentation_insensitive () =
  let a = Sga.of_strings [ "hel"; "lo" ] in
  let b = Sga.of_strings [ "h"; "ell"; "o" ] in
  check_bool "equal" true (Sga.equal a b);
  check_bool "not equal" false (Sga.equal a (Sga.of_string "hella"))

let sga_append_concat () =
  let a = Sga.of_string "ab" in
  let b = Sga.append a (Dk_mem.Buffer.of_string "cd") in
  check_str "append" "abcd" (Sga.to_string b);
  let c = Sga.concat b (Sga.of_string "ef") in
  check_str "concat" "abcdef" (Sga.to_string c);
  check_int "empty len" 0 (Sga.length Sga.empty)

let sga_roundtrip_prop =
  QCheck.Test.make ~name:"sga to_string = concat of segments" ~count:200
    QCheck.(small_list (string_of_size Gen.(0 -- 30)))
    (fun parts ->
      let sga = Sga.of_strings parts in
      String.equal (Sga.to_string sga) (String.concat "" parts))

(* ---------------- Registry ---------------- *)

let registry_basic () =
  let r = Registry.create () in
  check_bool "not registered" false
    (Registry.is_registered r ~region_id:1 ~device:"rdma0");
  Registry.register r ~region_id:1 ~device:"rdma0";
  check_bool "registered" true
    (Registry.is_registered r ~region_id:1 ~device:"rdma0");
  Registry.register r ~region_id:1 ~device:"rdma0";
  check_int "idempotent" 1 (Registry.registrations r);
  Registry.register r ~region_id:1 ~device:"nic0";
  check_int "two devices" 2 (Registry.registrations r);
  check_int "devices_of" 2 (List.length (Registry.devices_of r ~region_id:1))

(* ---------------- Manager ---------------- *)

let manager_basic () =
  let regions_seen = ref 0 in
  let mgr = Manager.create ~on_new_region:(fun _ -> incr regions_seen) () in
  let b = Manager.alloc_exn mgr 100 in
  check_int "one region" 1 !regions_seen;
  check_bool "region pinned" true
    (List.for_all Region.pinned (Manager.regions mgr));
  Buffer.free b;
  let st = Manager.stats mgr in
  check_int "allocs" 1 st.Manager.allocs;
  check_int "releases" 1 st.Manager.releases;
  check_int "live" 0 st.Manager.live_bytes

let manager_grows () =
  let mgr = Manager.create ~initial_region_size:4096 () in
  let b1 = Manager.alloc_exn mgr 4096 in
  let b2 = Manager.alloc_exn mgr 4096 in
  let st = Manager.stats mgr in
  check_bool "grew regions" true (st.Manager.region_count >= 2);
  Buffer.free b1;
  Buffer.free b2

let manager_cap () =
  (* exact-fit sizing: pin sanitize off so DK_SANITIZE=1 runs (16 extra
     canary bytes per alloc) don't change the arithmetic under test *)
  let mgr =
    Manager.create ~initial_region_size:4096 ~max_total_bytes:8192
      ~sanitize:false ()
  in
  let b1 = Manager.alloc_exn mgr 4096 in
  let b2 = Manager.alloc_exn mgr 4096 in
  check_bool "cap hit" true (Manager.alloc mgr 4096 = None);
  Buffer.free b1;
  Buffer.free b2;
  check_bool "reuse after free" true (Manager.alloc mgr 4096 <> None)

let manager_deferred_stat () =
  let mgr = Manager.create () in
  let b = Manager.alloc_exn mgr 64 in
  Buffer.io_hold b;
  Buffer.free b;
  Buffer.io_release b;
  let st = Manager.stats mgr in
  check_int "deferred release counted" 1 st.Manager.deferred_releases

(* Free-protection end to end through the manager (§4.5): the
   application frees while the device still holds the buffer for DMA;
   the storage must not return to the arena until the I/O completes. *)
let manager_deferred_release_midflight () =
  (* exact-fit sizing (whole-region alloc): sanitize off, as above *)
  let mgr =
    Manager.create ~initial_region_size:4096 ~max_total_bytes:4096
      ~sanitize:false ()
  in
  let b = Manager.alloc_exn mgr 4096 in
  Buffer.io_hold b;
  (* device I/O in flight *)
  Buffer.free b;
  (* application released mid-flight *)
  let st = Manager.stats mgr in
  check_int "storage not yet returned" 0 st.Manager.releases;
  check_bool "whole region still occupied" true (Manager.alloc mgr 4096 = None);
  check_bool "hold keeps it in flight" true (Buffer.in_flight b);
  Buffer.io_release b;
  (* I/O completion triggers the deferred release *)
  let st = Manager.stats mgr in
  check_int "released exactly once" 1 st.Manager.releases;
  check_int "release recorded as deferred" 1 st.Manager.deferred_releases;
  check_int "no bytes live" 0 st.Manager.live_bytes;
  check_bool "storage reusable after completion" true
    (Manager.alloc mgr 4096 <> None)

let manager_alloc_string () =
  let mgr = Manager.create () in
  match Manager.alloc_string mgr "demikernel" with
  | None -> Alcotest.fail "alloc_string"
  | Some b ->
      check_int "exact length" 10 (Buffer.length b);
      check_str "contents" "demikernel" (Buffer.to_string b);
      Buffer.free b

let manager_sga_of_string () =
  let mgr = Manager.create () in
  match Manager.sga_of_string mgr "queue" with
  | None -> Alcotest.fail "sga_of_string"
  | Some sga ->
      check_str "contents" "queue" (Sga.to_string sga);
      check_bool "managed" true
        (List.for_all
           (fun b -> Buffer.region_id b <> None)
           (Sga.segments sga));
      Sga.free sga

(* Property: alloc'd buffers from one manager never alias. *)
let manager_no_alias_prop =
  QCheck.Test.make ~name:"live managed buffers never alias" ~count:50
    QCheck.(small_list (int_range 1 2000))
    (fun sizes ->
      let mgr = Manager.create ~initial_region_size:4096 () in
      let bufs = List.filter_map (Manager.alloc mgr) sizes in
      (* Write a distinct pattern into each, then verify none clobbered. *)
      List.iteri
        (fun i b -> Buffer.fill b (Char.chr (i land 0xff)))
        bufs;
      let ok =
        List.for_all
          (fun (i, b) ->
            let c = Char.chr (i land 0xff) in
            let all_match = ref true in
            for j = 0 to Buffer.length b - 1 do
              if Buffer.get b j <> c then all_match := false
            done;
            !all_match)
          (List.mapi (fun i b -> (i, b)) bufs)
      in
      List.iter Buffer.free bufs;
      ok)

(* Property: buffer lifecycle — random interleavings of dup/free/
   io_hold/io_release release the storage exactly when both the
   application refcount and the I/O hold count reach zero. *)
let buffer_lifecycle_prop =
  QCheck.Test.make ~name:"buffer refcounting matches model" ~count:300
    QCheck.(small_list (int_bound 3))
    (fun script ->
      let released = ref false in
      let store = Bytes.make 64 '\000' in
      let root =
        Buffer.make_managed ~store ~off:0 ~len:64 ~region_id:1
          ~release:(fun () -> released := true)
          ()
      in
      let views = ref [ root ] in
      let app = ref 1 and io = ref 0 in
      let ok = ref true in
      let invariant () =
        if !released <> (!app = 0 && !io = 0) then ok := false
      in
      List.iter
        (fun op ->
          match op with
          | 0 -> (
              (* dup a live view *)
              match !views with
              | v :: _ ->
                  views := Buffer.dup v :: !views;
                  incr app;
                  invariant ()
              | [] -> ())
          | 1 -> (
              (* free a live view *)
              match !views with
              | v :: rest ->
                  Buffer.free v;
                  views := rest;
                  decr app;
                  invariant ()
              | [] -> ())
          | 2 ->
              (* device takes a hold (cell-level; any handle works) *)
              if not !released then begin
                Buffer.io_hold root;
                incr io;
                invariant ()
              end
          | _ ->
              if !io > 0 then begin
                Buffer.io_release root;
                decr io;
                invariant ()
              end)
        script;
      !ok)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dk_mem"
    [
      ( "arena",
        [
          Alcotest.test_case "basic" `Quick arena_basic;
          Alcotest.test_case "full" `Quick arena_full;
          Alcotest.test_case "too big" `Quick arena_too_big;
          Alcotest.test_case "double free" `Quick arena_double_free;
          Alcotest.test_case "coalesce" `Quick arena_coalesce;
        ] );
      qsuite "arena-props" [ arena_no_overlap; arena_quiescent_prop ];
      ( "buffer",
        [
          Alcotest.test_case "unmanaged" `Quick buffer_unmanaged;
          Alcotest.test_case "release on free" `Quick buffer_release_on_free;
          Alcotest.test_case "free-protection" `Quick buffer_free_protection;
          Alcotest.test_case "io after release" `Quick buffer_io_after_release_fails;
          Alcotest.test_case "views share lifecycle" `Quick buffer_views_share_lifecycle;
          Alcotest.test_case "view aliasing" `Quick buffer_view_aliasing;
          Alcotest.test_case "blits" `Quick buffer_blits;
          Alcotest.test_case "bounds" `Quick buffer_bounds;
          Alcotest.test_case "multiple io holds" `Quick buffer_multiple_io_holds;
        ] );
      ( "sga",
        [
          Alcotest.test_case "basic" `Quick sga_basic;
          Alcotest.test_case "copy_into" `Quick sga_copy_into;
          Alcotest.test_case "sub_string" `Quick sga_sub_string;
          Alcotest.test_case "equality" `Quick sga_equal_segmentation_insensitive;
          Alcotest.test_case "append/concat" `Quick sga_append_concat;
        ] );
      qsuite "sga-props" [ sga_roundtrip_prop ];
      ( "registry", [ Alcotest.test_case "basic" `Quick registry_basic ] );
      ( "manager",
        [
          Alcotest.test_case "basic" `Quick manager_basic;
          Alcotest.test_case "grows" `Quick manager_grows;
          Alcotest.test_case "cap" `Quick manager_cap;
          Alcotest.test_case "deferred stat" `Quick manager_deferred_stat;
          Alcotest.test_case "deferred release mid-flight" `Quick
            manager_deferred_release_midflight;
          Alcotest.test_case "alloc_string" `Quick manager_alloc_string;
          Alcotest.test_case "sga_of_string" `Quick manager_sga_of_string;
        ] );
      qsuite "manager-props" [ manager_no_alias_prop ];
      qsuite "buffer-props" [ buffer_lifecycle_prop ];
    ]
