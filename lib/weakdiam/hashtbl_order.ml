type t = {
  mutable hashes : int array;
  mutable values : int array;
  mutable length : int;
  mutable buckets : int;
}

let create k =
  let rec above b = if b >= k then b else above (2 * b) in
  { hashes = [||]; values = [||]; length = 0; buckets = above 16 }

let bucket t i = t.hashes.(i) land (t.buckets - 1)

(* moves entry [i] down past the entries of higher buckets before it *)
let sift t i =
  let h = t.hashes.(i) and v = t.values.(i) in
  let b = h land (t.buckets - 1) in
  let j = ref i in
  while !j > 0 && bucket t (!j - 1) > b do
    t.hashes.(!j) <- t.hashes.(!j - 1);
    t.values.(!j) <- t.values.(!j - 1);
    decr j
  done;
  t.hashes.(!j) <- h;
  t.values.(!j) <- v

let add t key value =
  let k = t.length in
  if k = Array.length t.hashes then begin
    let grow a =
      let b = Array.make (max 4 (2 * k)) 0 in
      Array.blit a 0 b 0 k;
      b
    in
    t.hashes <- grow t.hashes;
    t.values <- grow t.values
  end;
  t.length <- k + 1;
  if t.length > 2 * t.buckets then begin
    (* a stable sort by the new bucket keeps each bucket newest first *)
    t.buckets <- 2 * t.buckets;
    for i = 1 to k - 1 do
      sift t i
    done
  end;
  (* the newest key goes first in its bucket: before the entries of its
     bucket and of every higher one *)
  let h = Hashtbl.hash key in
  let b = h land (t.buckets - 1) in
  let j = ref k in
  while !j > 0 && bucket t (!j - 1) >= b do
    t.hashes.(!j) <- t.hashes.(!j - 1);
    t.values.(!j) <- t.values.(!j - 1);
    decr j
  done;
  t.hashes.(!j) <- h;
  t.values.(!j) <- value
