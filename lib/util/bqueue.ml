(* [slots] is empty until the first push, which makes [cap + 1] slots
   filled with that element: the ring is [0, cap) and slot [cap] keeps
   the filler a pop writes into the slot it vacates. *)
type 'a t = {
  cap : int;
  mutable slots : 'a array;
  mutable head : int;
  mutable len : int;
}

let create cap =
  if cap <= 0 then invalid_arg "Bqueue.create";
  { cap; slots = [||]; head = 0; len = 0 }

let capacity t = t.cap
let length t = t.len
let is_full t = t.len >= t.cap

let fill t v = t.slots <- Array.make (t.cap + 1) v
  [@@hot.alloc "the ring's slots, made once at its first push"]

let push t v =
  if is_full t then false
  else begin
    if Array.length t.slots = 0 then fill t v;
    let i = t.head + t.len in
    t.slots.(if i >= t.cap then i - t.cap else i) <- v;
    t.len <- t.len + 1;
    true
  end

let pop t =
  if t.len = 0 then None
  else begin
    let v = t.slots.(t.head) in
    t.slots.(t.head) <- t.slots.(t.cap);
    t.head <- (if t.head + 1 = t.cap then 0 else t.head + 1);
    t.len <- t.len - 1;
    Some v
  end

let peek t = if t.len = 0 then None else Some t.slots.(t.head)
