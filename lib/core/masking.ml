let default_bucket = 512

let padded_len ~bucket body_len =
  let total = 5 + body_len in
  ((total + bucket - 1) / bucket) * bucket

let frame tag ?(bucket = default_bucket) payload =
  if bucket <= 0 then invalid_arg "Masking: bucket must be positive";
  let len = String.length payload in
  (* One zero-filled allocation at the final size; header and payload are
     blitted over it, the tail is the padding. *)
  let b = Bytes.make (padded_len ~bucket len) '\x00' in
  Bytes.set b 0 tag;
  Bytes.set b 1 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 3 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 4 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 b 5 len;
  Bytes.unsafe_to_string b

let wrap ?bucket payload = frame 'D' ?bucket payload
let dummy ?bucket () = frame 'X' ?bucket ""

let unwrap s =
  if String.length s < 5 then None
  else begin
    match s.[0] with
    | 'D' ->
      let len = Crypto.Bytes_util.get_u32 s 1 in
      if len < 0 || 5 + len > String.length s then None
      else Some (Some (String.sub s 5 len))
    | 'X' -> Some None
    | _ -> None
  end

let overhead ?(bucket = default_bucket) n =
  if n <= 0 then invalid_arg "Masking.overhead: need positive payload";
  float_of_int (padded_len ~bucket n) /. float_of_int n

module Pacer = struct
  type t = {
    engine : Net.Engine.t;
    interval : int64;
    bucket : int;
    emit : string -> unit;
    deadline : int64;
    queue : string Queue.t;
    dummy_frame : string;
        (* dummies are all identical for a bucket size; pay the frame
           allocation once, not per idle tick *)
    mutable stopped : bool;
    mutable n_data : int;
    mutable n_dummies : int;
  }

  let rec tick t () =
    if (not t.stopped) && Int64.compare (Net.Engine.now t.engine) t.deadline < 0
    then begin
      (match Queue.take_opt t.queue with
       | Some payload ->
         t.n_data <- t.n_data + 1;
         t.emit (wrap ~bucket:t.bucket payload)
       | None ->
         t.n_dummies <- t.n_dummies + 1;
         t.emit t.dummy_frame);
      ignore (Net.Engine.schedule t.engine ~delay:t.interval (tick t))
    end

  let create engine ~interval ?(bucket = default_bucket) ~emit ~duration () =
    if Int64.compare interval 1L < 0 then
      invalid_arg "Pacer.create: interval must be positive";
    let t =
      { engine;
        interval;
        bucket;
        emit;
        deadline = Int64.add (Net.Engine.now engine) duration;
        queue = Queue.create ();
        dummy_frame = dummy ~bucket ();
        stopped = false;
        n_data = 0;
        n_dummies = 0
      }
    in
    ignore (Net.Engine.schedule engine ~delay:interval (tick t));
    t

  let offer t payload = Queue.push payload t.queue
  let stop t = t.stopped <- true
  let sent_data t = t.n_data
  let sent_dummies t = t.n_dummies
end
