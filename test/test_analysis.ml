(* Direct unit tests of the data-flow analyses (types, scales, chains,
   levels, transpose levels, polynomial counts, depth). *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module A = Eva_core.Analysis
module Passes = Eva_core.Passes

let find_one p pred = List.find (fun n -> pred n.Ir.op) p.Ir.all_nodes

let test_types () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:15 "v" in
  let s = B.scalar_input b ~scale:10 "s" in
  let vs = B.mul v s in
  let xc = B.mul x vs in
  B.output b "o" ~scale:30 xc;
  let p = B.program b in
  let ty = A.types p in
  let t e = Hashtbl.find ty (B.ir_node e).Ir.id in
  Alcotest.(check bool) "cipher" true (t x = Ir.Cipher);
  Alcotest.(check bool) "vector*scalar = vector" true (t vs = Ir.Vector);
  Alcotest.(check bool) "cipher*vector = cipher" true (t xc = Ir.Cipher);
  Alcotest.(check bool) "scalar" true (t s = Ir.Scalar)

let test_scales () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:15 "v" in
  let m = B.mul x v in
  let a = B.add m x in
  B.output b "o" ~scale:30 a;
  let p = B.program b in
  let sc = A.scales p in
  let s e = Hashtbl.find sc (B.ir_node e).Ir.id in
  Alcotest.(check int) "multiply adds" 45 (s m);
  (* Both operands cipher: ADD takes the (equal-by-constraint) cipher
     scale of the first; here 45 vs 30 is the state MATCH-SCALE fixes. *)
  Alcotest.(check int) "add takes cipher scale" 45 (s a)

let test_scales_plain_adoption () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:15 "v" in
  let a = B.add x v in
  B.output b "o" ~scale:30 a;
  let sc = A.scales (B.program b) in
  Alcotest.(check int) "plain adopts cipher scale" 30 (Hashtbl.find sc (B.ir_node a).Ir.id)

let test_chains_and_levels () =
  (* Hand-build: x -> rescale 60 -> modswitch -> out. *)
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:90 p (Ir.Input (Ir.Cipher, "x")) [] in
  let r = Ir.add_node p (Ir.Rescale 60) [ x ] in
  let m = Ir.add_node p Ir.Mod_switch [ r ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ m ]);
  let chains = A.chains p in
  Alcotest.(check (list (option int))) "input chain" [] (Hashtbl.find chains x.Ir.id);
  Alcotest.(check (list (option int))) "rescale chain" [ Some 60 ] (Hashtbl.find chains r.Ir.id);
  Alcotest.(check (list (option int))) "modswitch chain" [ Some 60; None ] (Hashtbl.find chains m.Ir.id);
  let levels = A.levels p in
  Alcotest.(check int) "level" 2 (Hashtbl.find levels m.Ir.id)

let test_chain_merge_wildcard () =
  (* Two paths: one rescales by 60, the other modswitches; they merge. *)
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:60 p (Ir.Input (Ir.Cipher, "x")) [] in
  let y = Ir.add_node ~decl_scale:60 p (Ir.Input (Ir.Cipher, "y")) [] in
  let m = Ir.add_node p Ir.Multiply [ x; x ] in
  let r = Ir.add_node p (Ir.Rescale 60) [ m ] in
  let sw = Ir.add_node p Ir.Mod_switch [ y ] in
  let a = Ir.add_node p Ir.Add [ r; sw ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ a ]);
  let chains = A.chains p in
  (* None (the wildcard) merges against Some 60. *)
  Alcotest.(check (list (option int))) "merged" [ Some 60 ] (Hashtbl.find chains a.Ir.id)

let test_chain_conflict_detected () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:80 p (Ir.Input (Ir.Cipher, "x")) [] in
  let r1 = Ir.add_node p (Ir.Rescale 60) [ x ] in
  let r2 = Ir.add_node p (Ir.Rescale 40) [ x ] in
  let a = Ir.add_node p Ir.Add [ r1; r2 ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ a ]);
  Alcotest.(check bool) "conflicting values" true
    (try
       ignore (A.chains p);
       false
     with A.Analysis_error _ -> true)

let test_rlevels () =
  (* Figure 5 shape after waterline: x^2+x+x. *)
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:60 "x" in
  let open B.Infix in
  B.output b "o" ~scale:30 ((x * x) + x + x);
  let p = B.program b in
  ignore (Passes.waterline_rescale p);
  ignore (Passes.eager_modswitch p);
  let rl = A.rlevels p in
  let xn = B.ir_node x in
  Alcotest.(check int) "root transpose level" 1 (Hashtbl.find rl xn.Ir.id)

let test_num_polys () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let sq = B.mul x x in
  B.output b "o" ~scale:30 sq;
  let p = B.program b in
  let np = A.num_polys p in
  Alcotest.(check int) "fresh" 2 (Hashtbl.find np (B.ir_node x).Ir.id);
  Alcotest.(check int) "product" 3 (Hashtbl.find np (B.ir_node sq).Ir.id);
  ignore (Passes.relinearize p);
  let np = A.num_polys p in
  let relin = find_one p (function Ir.Relinearize -> true | _ -> false) in
  Alcotest.(check int) "relinearized" 2 (Hashtbl.find np relin.Ir.id)

let test_num_polys_plain_multiply () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:15 "v" in
  let m = B.mul x v in
  B.output b "o" ~scale:30 m;
  let np = A.num_polys (B.program b) in
  Alcotest.(check int) "cipher x plain stays 2" 2 (Hashtbl.find np (B.ir_node m).Ir.id)

let test_depth () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "o" ~scale:30 (B.power x 9);
  (* 9 = square-and-multiply: x^8 (3 squarings) * x -> depth 4. *)
  Alcotest.(check int) "depth" 4 (A.multiplicative_depth (B.program b))

let test_depth_ignores_plain () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:15 "v" in
  let vv = B.mul (B.mul v v) v in
  B.output b "o" ~scale:30 (B.add x vv);
  Alcotest.(check int) "plain multiplies free" 0 (A.multiplicative_depth (B.program b))

let prop_chains_length_equals_rescale_count =
  QCheck2.Test.make ~name:"chain length counts RESCALE+MODSWITCH on a linear path" ~count:50
    QCheck2.Gen.(list_size (int_range 0 8) (int_range 0 1))
    (fun kinds ->
      let p = Ir.create_program ~vec_size:8 () in
      let x = Ir.add_node ~decl_scale:(60 * (1 + List.length kinds)) p (Ir.Input (Ir.Cipher, "x")) [] in
      let last =
        List.fold_left
          (fun acc kind -> Ir.add_node p (if kind = 0 then Ir.Rescale 60 else Ir.Mod_switch) [ acc ])
          x kinds
      in
      ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ last ]);
      let levels = A.levels p in
      Hashtbl.find levels last.Ir.id = List.length kinds)

(* Naive definitions of every sweep view, each a memoised recursion over
   a node's parameters (no topological order, no shared state between
   analyses). Chains are built oldest entry first, as the paper writes
   them. *)
let memo f =
  let tbl = Hashtbl.create 64 in
  let rec g n =
    match Hashtbl.find_opt tbl n.Ir.id with
    | Some v -> v
    | None ->
        let v = f g n in
        Hashtbl.replace tbl n.Ir.id v;
        v
  in
  g

let naive_views () =
  let ty =
    memo (fun ty n ->
      match n.Ir.op with
      | Ir.Input (t, _) -> t
      | Ir.Constant (Ir.Const_vector _) -> Ir.Vector
      | Ir.Constant (Ir.Const_scalar _) -> Ir.Scalar
      | _ ->
          let ts = List.map ty (Array.to_list n.Ir.parms) in
          if List.mem Ir.Cipher ts then Ir.Cipher else if List.mem Ir.Vector ts then Ir.Vector else Ir.Scalar)
  in
  let cipher n = ty n = Ir.Cipher in
  let scale =
    memo (fun scale n ->
        let parm i = n.Ir.parms.(i) in
        match n.Ir.op with
        | Ir.Input _ | Ir.Constant _ -> n.Ir.decl_scale
        | Ir.Rescale k -> scale (parm 0) - k
        | Ir.Multiply -> scale (parm 0) + scale (parm 1)
        | Ir.Add | Ir.Sub ->
            if cipher (parm 0) then scale (parm 0)
            else if cipher (parm 1) then scale (parm 1)
            else max (scale (parm 0)) (scale (parm 1))
        | _ -> scale (parm 0))
  in
  let chain =
    memo (fun chain n ->
        match n.Ir.op with
        | Ir.Input _ | Ir.Constant _ -> []
        | Ir.Rescale k -> chain n.Ir.parms.(0) @ [ Some k ]
        | Ir.Mod_switch -> chain n.Ir.parms.(0) @ [ None ]
        | _ -> (
            match List.map chain (List.filter cipher (Array.to_list n.Ir.parms)) with
            | [ c ] -> c
            | [ a; b ] ->
                if List.length a <> List.length b then failwith "chain lengths differ";
                List.map2
                  (fun x y ->
                    match (x, y) with
                    | Some i, Some j when i <> j -> failwith "chains disagree"
                    | Some _, _ -> x
                    | None, _ -> y)
                  a b
            | _ -> failwith "no cipher operand"))
  in
  let polys =
    memo (fun polys n ->
        if not (cipher n) then 0
        else
          match n.Ir.op with
          | Ir.Input _ | Ir.Relinearize -> 2
          | Ir.Multiply when cipher n.Ir.parms.(0) && cipher n.Ir.parms.(1) ->
              polys n.Ir.parms.(0) + polys n.Ir.parms.(1) - 1
          | _ -> List.fold_left max 0 (List.map polys (Array.to_list n.Ir.parms)))
  in
  (ty, scale, chain, polys)

let naive_rotation_steps ty p =
  let vs = p.Ir.vec_size in
  let norm k = ((k mod vs) + vs) mod vs in
  List.sort_uniq compare
    (List.filter_map
       (fun n ->
         if ty n <> Ir.Cipher then None
         else
           match n.Ir.op with
           | Ir.Rotate_left k when norm k <> 0 -> Some (norm k)
           | Ir.Rotate_right k when norm k <> 0 -> Some (-norm k)
           | _ -> None)
       p.Ir.all_nodes)

let views_match_naive p =
  let ty, scale, chain, polys = naive_views () in
  let types = A.types p and scales = A.scales p and chains = A.chains p and np = A.num_polys p in
  List.for_all
    (fun n ->
      let id = n.Ir.id in
      Hashtbl.find types id = ty n
      && Hashtbl.find scales id = scale n
      && Hashtbl.find np id = polys n
      && Hashtbl.find_opt chains id = if ty n = Ir.Cipher then Some (chain n) else None)
    p.Ir.all_nodes
  && Hashtbl.length types = Ir.node_count p
  && A.rotation_steps p = naive_rotation_steps ty p

let prop_sweep_views_match_naive =
  QCheck2.Test.make ~name:"sweep views = naive recursive definitions on compiled random programs"
    ~count:100
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 3))
    (fun (seed, variant) ->
      let p = Gen_programs.random_program ~right_rotations:true seed in
      let c =
        match variant with
        | 0 -> Eva_core.Compile.run p
        | 1 -> Eva_core.Compile.run ~vectorize:false ~policy:Passes.Lazy_insertion p
        | 2 -> Eva_core.Compile.run ~vectorize:false ~eager_relin:true p
        | _ -> Eva_core.Compile.run ~batch:4 p
      in
      views_match_naive p && views_match_naive c.Eva_core.Compile.program)

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "analysis"
    [
      ( "types & scales",
        [
          Alcotest.test_case "types" `Quick test_types;
          Alcotest.test_case "scales" `Quick test_scales;
          Alcotest.test_case "plain adoption" `Quick test_scales_plain_adoption;
        ] );
      ( "rescale chains",
        [
          Alcotest.test_case "chains & levels" `Quick test_chains_and_levels;
          Alcotest.test_case "wildcard merge" `Quick test_chain_merge_wildcard;
          Alcotest.test_case "conflict detected" `Quick test_chain_conflict_detected;
          Alcotest.test_case "transpose levels" `Quick test_rlevels;
        ] );
      ( "polynomial counts & depth",
        [
          Alcotest.test_case "num_polys" `Quick test_num_polys;
          Alcotest.test_case "plain multiply" `Quick test_num_polys_plain_multiply;
          Alcotest.test_case "depth" `Quick test_depth;
          Alcotest.test_case "plain depth free" `Quick test_depth_ignores_plain;
        ] );
      ("property", [ qt prop_chains_length_equals_rescale_count; qt prop_sweep_views_match_naive ]);
    ]
