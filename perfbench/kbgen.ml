(* The knowledge bases of kb-query and serve-mixed: R/2, S/2, T/1 facts
   drawn by Generate.kb_stream, one relation at a time, each with a fixed
   count (its share of the fact space). The seed picks the facts; every
   seed gets the same relation sizes, so query costs do not drift with
   the seed. *)

module Generate = Ipdb_pdb.Generate
module Kbfile = Ipdb_kb.Kbfile
module Run_error = Ipdb_run.Error

let relations = [ ("R", 2); ("S", 2); ("T", 1) ]

let counts ~facts ~universe =
  let space (_, arity) = Float.pow (float_of_int universe) (float_of_int arity) in
  let total = List.fold_left (fun a r -> a +. space r) 0.0 relations in
  let shares = List.map (fun r -> (r, int_of_float (Float.round (float_of_int facts *. space r /. total)))) relations in
  (* the largest relation absorbs rounding, so the counts sum to [facts] *)
  let rest = facts - List.fold_left (fun a (_, n) -> a + n) 0 shares in
  List.mapi (fun i (r, n) -> (r, if i = 0 then n + rest else n)) shares

let facts ~seed ~facts ~universe =
  Seq.concat
    (List.to_seq
       (List.mapi
          (fun i (r, n) -> Generate.kb_stream (Generate.rng ((seed * 3) + i)) ~relations:[ r ] ~facts:n ~universe)
          (counts ~facts ~universe)))

(* Write the kb to [path]; returns the facts written. *)
let write ~path ~seed ~facts:n ~universe =
  match Kbfile.write ~path ~relations (facts ~seed ~facts:n ~universe) with
  | Ok written when written = n -> ()
  | Ok written -> failwith (Printf.sprintf "kb write: %d facts, wanted %d" written n)
  | Error e -> failwith ("kb write: " ^ Run_error.to_string e)
