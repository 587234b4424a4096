type t = {
  mutable epoch : int;
  mutable current : Crypto.Cmac.key;
  mutable current_raw : string; (* raw bytes behind [current]; ratchet input *)
  mutable previous : (int * Crypto.Cmac.key) option;
}

let of_raw raw = Crypto.Cmac.key raw
let make raw = { epoch = 0; current = of_raw raw; current_raw = raw; previous = None }

let of_seed ~seed =
  (* Epoch 0 only; later epochs come from the ratchet, not the seed, so
     replicas sharing a seed still agree (the chain is a pure function
     of the epoch-0 raw) but the seed holder gains nothing over anyone
     else who has the current key. *)
  make (Crypto.Bytes_util.take 16 (Crypto.Sha256.digest (seed ^ "/0")))

let current_epoch t = t.epoch

(* One-way step: the next epoch's raw key is a hash of the current one,
   and rotation overwrites the current one. Inverting SHA-256 aside,
   nothing recoverable from a compromised box after rotation — not the
   seed, not a counter closure — reaches backward to a retired epoch's
   key, so grants issued under earlier epochs stay confidential
   (forward secrecy, modulo the one-epoch grace window below). *)
let ratchet raw =
  Crypto.Bytes_util.take 16 (Crypto.Sha256.digest ("nn-km-ratchet/" ^ raw))

let rotate t =
  t.previous <- Some (t.epoch, t.current);
  t.epoch <- (t.epoch + 1) land 0xff;
  t.current_raw <- ratchet t.current_raw;
  t.current <- of_raw t.current_raw

let key_for t epoch =
  if epoch = t.epoch then Some t.current
  else begin
    match t.previous with
    | Some (e, k) when e = epoch -> Some k
    | Some _ | None -> None
  end

let derive_with km ~nonce ~src =
  if String.length nonce <> Protocol.nonce_len then
    invalid_arg "Master_key.derive: bad nonce length";
  Crypto.Cmac.mac_parts km [ "ks-derive"; nonce; Net.Ipaddr.to_octets src ]

let derive t ~epoch ~nonce ~src =
  Option.map (fun km -> derive_with km ~nonce ~src) (key_for t epoch)

let derive_current t ~nonce ~src =
  (t.epoch, derive_with t.current ~nonce ~src)
