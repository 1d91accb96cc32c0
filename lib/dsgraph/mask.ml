type t = { mem : bool array; mutable count : int }

let full n = { mem = Array.make n true; count = n }
let empty n = { mem = Array.make n false; count = 0 }

let of_list n l =
  let t = empty n in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Mask.of_list: out of range";
      if not t.mem.(v) then begin
        t.mem.(v) <- true;
        t.count <- t.count + 1
      end)
    l;
  t

let copy t = { mem = Array.copy t.mem; count = t.count }
let mem t v = t.mem.(v)

let add t v =
  if not t.mem.(v) then begin
    t.mem.(v) <- true;
    t.count <- t.count + 1
  end

let remove t v =
  if t.mem.(v) then begin
    t.mem.(v) <- false;
    t.count <- t.count - 1
  end

let count t = t.count
let size t = Array.length t.mem

let to_list t =
  let acc = ref [] in
  for v = Array.length t.mem - 1 downto 0 do
    if t.mem.(v) then acc := v :: !acc
  done;
  !acc

let to_array t =
  let a = Array.make t.count 0 and k = ref 0 in
  for v = 0 to Array.length t.mem - 1 do
    if t.mem.(v) then begin
      a.(!k) <- v;
      incr k
    end
  done;
  a

let iter t f =
  for v = 0 to Array.length t.mem - 1 do
    if t.mem.(v) then f v
  done

let inter a b =
  let n = Array.length a.mem in
  if Array.length b.mem <> n then invalid_arg "Mask.inter: size mismatch";
  let r = empty n in
  for v = 0 to n - 1 do
    if a.mem.(v) && b.mem.(v) then add r v
  done;
  r

let diff a b =
  let n = Array.length a.mem in
  if Array.length b.mem <> n then invalid_arg "Mask.diff: size mismatch";
  let r = empty n in
  for v = 0 to n - 1 do
    if a.mem.(v) && not b.mem.(v) then add r v
  done;
  r

let subset a b =
  let n = Array.length a.mem in
  if Array.length b.mem <> n then invalid_arg "Mask.subset: size mismatch";
  let ok = ref true in
  for v = 0 to n - 1 do
    if a.mem.(v) && not b.mem.(v) then ok := false
  done;
  !ok

let pp fmt t = Format.fprintf fmt "mask(%d/%d)" t.count (Array.length t.mem)
