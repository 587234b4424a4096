type t = {
  capacity : int;
  q : Observation.t Queue.t;
}

let create ?(capacity = 65536) () = { capacity; q = Queue.create () }

let tap t obs =
  Queue.push obs t.q;
  if Queue.length t.q > t.capacity then ignore (Queue.pop t.q)

let length t = Queue.length t.q
let to_list t = List.of_seq (Queue.to_seq t.q)
let exists t f = Seq.exists f (Queue.to_seq t.q)
let count t f = Seq.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 (Queue.to_seq t.q)
let clear t = Queue.clear t.q
