type t = {
  mutable mark : int array;
  mutable value : int array;
  mutable queue : int array;
  mutable stamp : int;
}

let create () = { mark = [||]; value = [||]; queue = [||]; stamp = 0 }

let fit s g =
  let n = Graph.n g in
  if Array.length s.mark < n then begin
    s.mark <- Array.make n 0;
    s.value <- Array.make n 0;
    s.queue <- Array.make n 0
  end

let fresh s =
  s.stamp <- s.stamp + 2;
  s.stamp - 1

let stamp s set =
  let inside = fresh s in
  Array.iter (fun v -> s.mark.(v) <- inside) set;
  inside

let push s ~inside v tail =
  s.mark.(v) <- inside + 1;
  s.value.(v) <- 0;
  s.queue.(tail) <- v;
  tail + 1

let expand s g ~inside head tail =
  let offsets = Graph.offsets g and targets = Graph.targets g in
  let mark = s.mark and value = s.value and queue = s.queue in
  let head = ref head and tail = ref tail in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let d = value.(u) + 1 in
    for i = offsets.{u} to offsets.{u + 1} - 1 do
      let w = targets.{i} in
      if mark.(w) = inside then begin
        mark.(w) <- inside + 1;
        value.(w) <- d;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

let bfs s g ~inside ~source tail =
  expand s g ~inside tail (push s ~inside source tail)

let components s g set ~inside =
  let sizes = ref [] and ncomp = ref 0 and tail = ref 0 in
  Array.iter
    (fun v ->
      if s.mark.(v) = inside then begin
        let lo = !tail in
        tail := bfs s g ~inside ~source:v lo;
        for j = lo to !tail - 1 do
          s.value.(s.queue.(j)) <- !ncomp
        done;
        sizes := (!tail - lo) :: !sizes;
        incr ncomp
      end)
    set;
  if !tail = Array.length set && !ncomp = 1 then [| set |]
  else begin
    let comps =
      Array.of_list (List.rev_map (fun k -> Array.make k 0) !sizes)
    in
    let fill = Array.make !ncomp 0 in
    Array.iter
      (fun v ->
        if s.mark.(v) = inside + 1 then begin
          let c = s.value.(v) in
          comps.(c).(fill.(c)) <- v;
          fill.(c) <- fill.(c) + 1
        end)
      set;
    comps
  end
