(* Order statistics over timing samples. Quantiles interpolate linearly
   between closest ranks (the "inclusive" definition Python's
   statistics.quantiles uses with method="inclusive"). *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then 0.0
  else if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = min (int_of_float pos) (n - 2) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sum xs = List.fold_left ( +. ) 0.0 xs

(* [a / b], 0 when nothing was measured. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The calm ones of [xs], given the share of host CPU time the
   hypervisor took while each was measured ([steal]): those measured
   while it took no more than at the run's lower quartile, the calmer
   quarter or more. On a shared host the hypervisor takes the vCPUs in
   bursts of seconds, and a block it hits reads up to 1.6x slower, while
   a program that got slower reads slower in every block. *)
let calm ~steal xs =
  let m = quantile steal 0.25 in
  List.filter_map (fun (s, x) -> if s <= m then Some x else None) (List.combine steal xs)

(* The median over the calm blocks of each block's [q]: [xs] are samples
   in issue order, [block] per block, one [steal] share per block. *)
let calm_quantile ~block ~steal xs q =
  let a = Array.of_list xs in
  median (calm ~steal (List.mapi (fun b _ -> quantile (Array.to_list (Array.sub a (b * block) block)) q) steal))
