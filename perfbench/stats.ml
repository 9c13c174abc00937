(* Order statistics shared by the runner and the comparator. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The same over values that occur [n] times each. *)
let weighted_percentile p (xs : (float * int) list) =
  let xs = List.sort compare xs in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 xs in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int total))) in
  let rec go seen = function
    | [] -> nan
    | (v, n) :: rest -> if seen + n >= rank then v else go (seen + n) rest
  in
  go 0 xs

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* First and third quartile by Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads read the same here as
   in any script that checks this benchmark's runs. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
