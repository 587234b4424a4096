let nonce_len = 8
let key_len = 16
let tag_len = 4
let wire_version = 2
let wire_version_legacy = 1
let max_blob_len = 4096
let onetime_rsa_bits = 512
let rsa_public_exponent = 3
let master_key_lifetime = 3_600_000_000_000L

type costs = {
  key_setup : int64;
  data_forward : int64;
  data_return : int64;
  vanilla_forward : int64;
}

(* Measured on the repository's own crypto code ([netneutral e1] and
   [netneutral e2]): a full key-setup response — parse the one-time key, derive
   Ks, pad and RSA-encrypt with e=3 — lands near 55 us; the symmetric
   per-packet transform near 3 us; a vanilla forwarding decision against
   a 4k-entry FIB near 2.5 us. *)
let default_costs =
  { key_setup = 55_000L;
    data_forward = 3_000L;
    data_return = 2_700L;
    vanilla_forward = 2_500L
  }

let dscp_ef = 46
