(* Fixed-memory latency histogram.

   Log-spaced buckets 0.1% wide from 1 µs to ~16 min, so a percentile is
   within 0.1% of the exact sample quantile and a run of a million
   samples costs no more memory than a run of ten. Values are seconds;
   values below the first bucket land in it. Within a bucket the
   percentile is interpolated by rank, so two runs with different
   samples do not read the same bucket edge. *)

let lo = 1e-6
let ratio = 1.001
let nbuckets = 21_000
let log_ratio = log ratio

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make nbuckets 0; n = 0 }

let clear t =
  Array.fill t.counts 0 nbuckets 0;
  t.n <- 0

let bucket v =
  if v <= lo then 0
  else min (nbuckets - 1) (int_of_float (log (v /. lo) /. log_ratio))

let add t v =
  let b = bucket v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1

let count t = t.n

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n

(* [p] in [0, 100]; [nan] when empty. *)
let percentile t p =
  if t.n = 0 then nan
  else begin
    let rank = Float.max 1.0 (p /. 100.0 *. float_of_int t.n) in
    let rec go i seen =
      let c = t.counts.(i) in
      if float_of_int (seen + c) >= rank || i = nbuckets - 1 then
        let lower = lo *. (ratio ** float_of_int i) in
        let frac =
          if c = 0 then 0.0 else (rank -. float_of_int seen) /. float_of_int c
        in
        lower *. (1.0 +. ((ratio -. 1.0) *. Float.min 1.0 frac))
      else go (i + 1) (seen + c)
    in
    go 0 0
  end
