(* Infrastructure tests: the mutable term graph (Ir), the rewriting
   framework, and the reference executor's edge cases. *)

module Ir = Eva_core.Ir
module B = Eva_core.Builder
module Rewrite = Eva_core.Rewrite
module Reference = Eva_core.Reference

let mk_input p name = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, name)) []

let test_add_node_links_uses () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = mk_input p "x" in
  let s = Ir.add_node p Ir.Add [ x; x ] in
  (* The same parent in two slots contributes two use edges. *)
  Alcotest.(check int) "two use edges" 2 (List.length (List.filter (fun u -> u == s) x.Ir.uses))

let test_set_parm_rewires_both_sides () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = mk_input p "x" in
  let y = mk_input p "y" in
  let s = Ir.add_node p Ir.Add [ x; x ] in
  Ir.set_parm s 0 y;
  Alcotest.(check int) "x keeps one use" 1 (List.length (List.filter (fun u -> u == s) x.Ir.uses));
  Alcotest.(check int) "y gains one use" 1 (List.length (List.filter (fun u -> u == s) y.Ir.uses));
  Alcotest.(check bool) "slot updated" true (s.Ir.parms.(0) == y && s.Ir.parms.(1) == x)

let test_insert_between () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = mk_input p "x" in
  let a = Ir.add_node p Ir.Negate [ x ] in
  let b = Ir.add_node p Ir.Negate [ x ] in
  let m = Ir.insert_between p x Ir.Mod_switch [] in
  Alcotest.(check bool) "children rewired" true (a.Ir.parms.(0) == m && b.Ir.parms.(0) == m);
  Alcotest.(check bool) "m's parent is x" true (m.Ir.parms.(0) == x);
  Alcotest.(check int) "x has one use (m)" 1 (List.length x.Ir.uses)

let test_insert_between_filter () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = mk_input p "x" in
  let a = Ir.add_node p Ir.Negate [ x ] in
  let b = Ir.add_node p Ir.Relinearize [ x ] in
  let m = Ir.insert_between p x Ir.Mod_switch [] ~child_filter:(fun c -> c == a) in
  Alcotest.(check bool) "a rewired" true (a.Ir.parms.(0) == m);
  Alcotest.(check bool) "b untouched" true (b.Ir.parms.(0) == x)

let test_prune () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = mk_input p "x" in
  let live = Ir.add_node p Ir.Negate [ x ] in
  let _dead = Ir.add_node p Ir.Add [ x; x ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ live ]);
  Ir.prune p;
  Alcotest.(check int) "dead removed" 3 (Ir.node_count p);
  (* Use lists must not retain the dead node. *)
  Alcotest.(check int) "x uses" 1 (List.length x.Ir.uses)

let test_copy_is_deep () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "o" ~scale:30 (B.mul x x);
  let p = B.program b in
  let q = Ir.copy p in
  Alcotest.(check int) "same size" (Ir.node_count p) (Ir.node_count q);
  (* Mutating the copy leaves the original intact. *)
  let mult = List.find (fun n -> n.Ir.op = Ir.Multiply) q.Ir.all_nodes in
  ignore (Ir.insert_between q mult Ir.Relinearize []);
  Alcotest.(check bool) "original unchanged" true
    (not (List.exists (fun n -> n.Ir.op = Ir.Relinearize) p.Ir.all_nodes))

let test_topological_deterministic_and_sound () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let y = B.input b ~scale:30 "y" in
  B.output b "o" ~scale:30 (B.add (B.mul x y) (B.mul y x));
  let p = B.program b in
  let order = Ir.topological p in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace pos n.Ir.id i) order;
  List.iter
    (fun n ->
      Array.iter
        (fun parent ->
          Alcotest.(check bool) "parents first" true (Hashtbl.find pos parent.Ir.id < Hashtbl.find pos n.Ir.id))
        n.Ir.parms)
    order;
  let ids nodes = List.map (fun n -> n.Ir.id) nodes in
  Alcotest.(check (list int)) "deterministic" (ids order) (ids (Ir.topological p))

let test_rewrite_quiescence_bound () =
  (* A pass that always reports change must hit the safety bound. *)
  Alcotest.(check bool) "raises" true
    (try
       Rewrite.until_quiescence ~max_rounds:5 [ (fun () -> true) ];
       false
     with Failure _ -> true)

let test_rewrite_passes_compose () =
  let calls = ref 0 in
  let pass () =
    incr calls;
    !calls < 3
  in
  Rewrite.until_quiescence [ pass ];
  Alcotest.(check int) "ran until no change" 3 !calls

let test_reference_missing_input () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "o" ~scale:30 x;
  Alcotest.check_raises "missing" (Reference.Missing_input "x") (fun () ->
      ignore (Reference.execute (B.program b) []))

let test_reference_tiles_short_inputs () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "o" ~scale:30 x;
  let out = Reference.execute (B.program b) [ ("x", Reference.Vec [| 1.0; 2.0 |]) ] in
  Alcotest.(check (array (float 0.0))) "tiled" [| 1.0; 2.0; 1.0; 2.0; 1.0; 2.0; 1.0; 2.0 |] (List.assoc "o" out)

let test_reference_rejects_bad_tiling () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "o" ~scale:30 x;
  (* A non-dividing length zero-pads (it cannot tile evenly), so a
     request vector of any length in [1, vec_size] is well-defined. *)
  let out = Reference.execute (B.program b) [ ("x", Reference.Vec [| 1.0; 2.0; 3.0 |]) ] in
  Alcotest.(check (array (float 0.0)))
    "zero-padded" [| 1.0; 2.0; 3.0; 0.0; 0.0; 0.0; 0.0; 0.0 |] (List.assoc "o" out);
  (* Empty and oversized vectors have no placement at all; they fail as
     classified EVA-E502, never a bare Invalid_argument (a daemon must
     be able to answer them as error responses). *)
  let rejects v =
    try
      ignore (Reference.execute (B.program b) [ ("x", Reference.Vec v) ]);
      false
    with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.code = Eva_diag.Diag.exec_bad_operands
  in
  Alcotest.(check bool) "empty rejected as E502" true (rejects [||]);
  Alcotest.(check bool) "oversized rejected as E502" true (rejects (Array.make 9 0.0))

let test_builder_rejects_cross_program () =
  let b1 = B.create ~vec_size:8 () in
  let b2 = B.create ~vec_size:8 () in
  let x1 = B.input b1 ~scale:30 "x" in
  let x2 = B.input b2 ~scale:30 "x" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (B.add x1 x2);
       false
     with Invalid_argument _ -> true)

let test_builder_rejects_duplicate_inputs () =
  let b = B.create ~vec_size:8 () in
  ignore (B.input b ~scale:30 "x");
  Alcotest.(check bool) "raises" true
    (try
       ignore (B.input b ~scale:30 "x");
       false
     with Invalid_argument _ -> true)

let test_vec_size_must_be_power_of_two () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Ir.create_program ~vec_size:12 ());
       false
     with Invalid_argument _ -> true)

let prop_copy_preserves_serialization =
  QCheck2.Test.make ~name:"Ir.copy preserves the serialized form" ~count:50 QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let b = B.create ~vec_size:16 () in
      let x = B.input b ~scale:30 "x" in
      let pool = ref [ x ] in
      for _ = 1 to 10 do
        let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
        let e =
          match Random.State.int st 4 with
          | 0 -> B.add (pick ()) (pick ())
          | 1 -> B.mul (pick ()) (pick ())
          | 2 -> B.rotate_left (pick ()) (Random.State.int st 16)
          | _ -> B.neg (pick ())
        in
        pool := e :: !pool
      done;
      B.output b "o" ~scale:30 (List.hd !pool);
      let p = B.program b in
      Eva_core.Serialize.to_string p = Eva_core.Serialize.to_string (Ir.copy p))

(* Reference schedule for [Ir.topological]: repeatedly emit the smallest
   id whose parents have all been emitted (Kahn's algorithm with a
   min-id choice, written as a quadratic scan). *)
let reference_topological p =
  let emitted = Hashtbl.create 64 in
  let ready n = Array.for_all (fun m -> Hashtbl.mem emitted m.Ir.id) n.Ir.parms in
  let rec go acc remaining =
    match List.filter ready remaining with
    | [] -> List.rev acc
    | r :: rs ->
        let n = List.fold_left (fun a m -> if m.Ir.id < a.Ir.id then m else a) r rs in
        Hashtbl.replace emitted n.Ir.id ();
        go (n :: acc) (List.filter (fun m -> m != n) remaining)
  in
  go [] p.Ir.all_nodes

(* Nodes reachable from [n] along use edges, [n] included. *)
let descendants n =
  let seen = Hashtbl.create 16 in
  let rec visit m =
    if not (Hashtbl.mem seen m.Ir.id) then begin
      Hashtbl.replace seen m.Ir.id ();
      List.iter visit m.Ir.uses
    end
  in
  visit n;
  seen

(* A random DAG, then random graph surgery: [insert_between] splices
   fresh (larger-id) nodes above existing children, [set_parm] redirects
   operands to any node that creates no cycle, and [prune] drops what no
   output reaches, leaving sparse ids. *)
let random_rewritten_dag seed =
  let st = Random.State.make [| seed |] in
  let p = Ir.create_program ~vec_size:8 () in
  let nodes = ref [] in
  let pick () = List.nth !nodes (Random.State.int st (List.length !nodes)) in
  for i = 0 to 1 + Random.State.int st 3 do
    nodes := mk_input p (Printf.sprintf "x%d" i) :: !nodes
  done;
  for _ = 1 to 5 + Random.State.int st 20 do
    let op, arity =
      match Random.State.int st 3 with 0 -> (Ir.Add, 2) | 1 -> (Ir.Multiply, 2) | _ -> (Ir.Negate, 1)
    in
    nodes := Ir.add_node p op (List.init arity (fun _ -> pick ())) :: !nodes
  done;
  let instructions () = List.filter (fun n -> Array.length n.Ir.parms > 0) !nodes in
  for _ = 1 to Random.State.int st 12 do
    match Random.State.int st 2 with
    | 0 ->
        let n = pick () in
        let op = if Random.State.bool st then Ir.Mod_switch else Ir.Negate in
        let keep = Random.State.bool st in
        nodes :=
          Ir.insert_between ~child_filter:(fun _ -> keep || Random.State.bool st) p n op [] :: !nodes
    | _ ->
        let candidates = instructions () in
        let c = List.nth candidates (Random.State.int st (List.length candidates)) in
        let below = descendants c in
        let targets = List.filter (fun m -> not (Hashtbl.mem below m.Ir.id)) !nodes in
        if targets <> [] then
          Ir.set_parm c
            (Random.State.int st (Array.length c.Ir.parms))
            (List.nth targets (Random.State.int st (List.length targets)))
  done;
  List.iteri
    (fun i n -> if Random.State.int st 3 = 0 then ignore (Ir.add_node p (Ir.Output (Printf.sprintf "o%d" i)) [ n ]))
    !nodes;
  ignore (Ir.add_node p (Ir.Output "last") [ List.hd !nodes ]);
  Ir.prune p;
  p

let prop_topological_matches_reference =
  QCheck2.Test.make ~name:"Ir.topological = min-id Kahn after insert_between/set_parm/prune" ~count:300
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let p = random_rewritten_dag seed in
      let ids nodes = List.map (fun n -> n.Ir.id) nodes in
      ids (Ir.topological p) = ids (reference_topological p)
      && ids (Ir.reverse_topological p) = List.rev (ids (reference_topological p)))

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "ir"
    [
      ( "graph surgery",
        [
          Alcotest.test_case "use edges" `Quick test_add_node_links_uses;
          Alcotest.test_case "set_parm" `Quick test_set_parm_rewires_both_sides;
          Alcotest.test_case "insert_between" `Quick test_insert_between;
          Alcotest.test_case "insert_between filter" `Quick test_insert_between_filter;
          Alcotest.test_case "prune" `Quick test_prune;
          Alcotest.test_case "deep copy" `Quick test_copy_is_deep;
          Alcotest.test_case "topological order" `Quick test_topological_deterministic_and_sound;
        ] );
      ( "rewriting",
        [
          Alcotest.test_case "quiescence bound" `Quick test_rewrite_quiescence_bound;
          Alcotest.test_case "passes compose" `Quick test_rewrite_passes_compose;
        ] );
      ( "reference & builder guards",
        [
          Alcotest.test_case "missing input" `Quick test_reference_missing_input;
          Alcotest.test_case "short inputs tile" `Quick test_reference_tiles_short_inputs;
          Alcotest.test_case "bad tiling" `Quick test_reference_rejects_bad_tiling;
          Alcotest.test_case "cross-program" `Quick test_builder_rejects_cross_program;
          Alcotest.test_case "duplicate input" `Quick test_builder_rejects_duplicate_inputs;
          Alcotest.test_case "vec_size power of two" `Quick test_vec_size_must_be_power_of_two;
        ] );
      ("property", [ qt prop_copy_preserves_serialization; qt prop_topological_matches_reference ]);
    ]
