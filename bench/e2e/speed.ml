(* The machine's current speed, read from a fixed reference kernel.

   The benchmark runs on a few cores of a shared host whose speed
   drifts by up to 2x over minutes, as other tenants load it; every
   workload slows by nearly the same factor at once. So each timed
   call is paired with one run of this kernel just before it, and is
   reported scaled by [reference / kernel]: in seconds on a machine
   where the kernel takes [reference] seconds. The kernel uses only
   the standard library and allocates nothing, so neither a change to
   the library nor a change to the GC settings moves it.

   It mixes the two kinds of work the slowdowns track best: a BFS
   over a fixed random graph (dependent loads from a 3 MB working
   set) and a heap sort (data-dependent branches). *)

[@@@domain_unsafe
"the kernel's graph and scratch arrays are module-global so that a run \
 allocates nothing; the benchmark calls it from one domain only"]

let nodes = 1 lsl 16
let degree = 4

(* out-neighbours from a fixed linear congruential sequence, so that no
   change to a random number generator elsewhere can alter the graph *)
let adj =
  let x = ref 20_221 in
  Array.init (degree * nodes) (fun _ ->
      x := ((!x * 25_214_903_917) + 11) land ((1 lsl 48) - 1);
      (!x lsr 24) land (nodes - 1))

let dist = Array.make nodes 0
let queue = Array.make nodes 0

let bfs src =
  Array.fill dist 0 nodes (-1);
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = degree * u to (degree * u) + degree - 1 do
      let v = adj.(k) in
      if dist.(v) < 0 then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

let sort_size = 1 lsl 14
let keys = Array.init sort_size (fun i -> adj.(i) lxor (i * 7919))
let heap = Array.make sort_size 0

let rec sift a i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      let x = a.(i) in
      a.(i) <- a.(c);
      a.(c) <- x;
      sift a c n
    end
  end

let heap_sort () =
  Array.blit keys 0 heap 0 sort_size;
  for i = (sort_size / 2) - 1 downto 0 do
    sift heap i sort_size
  done;
  for n = sort_size - 1 downto 1 do
    let x = heap.(0) in
    heap.(0) <- heap.(n);
    heap.(n) <- x;
    sift heap 0 n
  done

(* Seconds taken by one run of the kernel. *)
let kernel () =
  let t0 = Unix.gettimeofday () in
  bfs 0;
  heap_sort ();
  bfs (nodes / 2);
  Unix.gettimeofday () -. t0

(* The kernel's time that fixes the scale: about its time on an idle
   machine of the kind the benchmark was written on (a Xeon vCPU at
   2 GHz). *)
let reference = 0.010

(* [scale ~kernel dt] is [dt] at the reference speed, for a call timed
   right after a kernel run that took [kernel] seconds. *)
let scale ~kernel dt = dt *. reference /. kernel
