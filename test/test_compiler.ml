(* Compiler tests built around the paper's worked examples:
   Figure 2 (x^2 y^3), Figure 3 (x^2 + x), Figure 5 (x^2 + x + x). *)

module B = Eva_core.Builder
module Ir = Eva_core.Ir
module Passes = Eva_core.Passes
module Analysis = Eva_core.Analysis
module Validate = Eva_core.Validate
module Compile = Eva_core.Compile
module Params = Eva_core.Params
module Reference = Eva_core.Reference

let count_op p pred = List.length (List.filter (fun n -> pred n.Ir.op) p.Ir.all_nodes)
let rescales p = count_op p (function Ir.Rescale _ -> true | _ -> false)
let modswitches p = count_op p (function Ir.Mod_switch -> true | _ -> false)
let relins p = count_op p (function Ir.Relinearize -> true | _ -> false)

(* Figure 2(a): x^2 y^3 with x at 2^60 and y at 2^30. *)
let fig2_input () =
  let b = B.create ~name:"x2y3" ~vec_size:8 () in
  let x = B.input b ~scale:60 "x" in
  let y = B.input b ~scale:30 "y" in
  let open B.Infix in
  let x2 = x * x in
  let y3 = y * y * y in
  B.output b "out" ~scale:30 (x2 * y3);
  B.program b

(* Figure 3(a): x^2 + x at 2^30. *)
let fig3_input () =
  let b = B.create ~name:"x2px" ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * x) + x);
  B.program b

(* Figure 5: x^2 + x + x at 2^60. *)
let fig5_input () =
  let b = B.create ~name:"x2pxpx" ~vec_size:8 () in
  let x = B.input b ~scale:60 "x" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * x) + x + x);
  B.program b

let test_fig2_waterline () =
  (* With s_w = 2^30 (the paper's assumption), waterline rescale places
     rescales after x*x, y^2*y and the final multiply, and constraint 1
     holds without any modswitch: Figure 2(d). *)
  let p = Ir.copy (fig2_input ()) in
  ignore (Passes.waterline_rescale ~waterline:30 p);
  Alcotest.(check int) "rescales" 3 (rescales p);
  ignore (Passes.eager_modswitch p);
  Alcotest.(check int) "no modswitch needed" 0 (modswitches p);
  ignore (Passes.match_scale p);
  ignore (Passes.relinearize p);
  Validate.check_transformed p;
  (* Output chain [60; 60], output scale 2^30. *)
  let chains = Analysis.chains p in
  let out = List.hd (Ir.outputs p) in
  Alcotest.(check (list (option int))) "chain" [ Some 60; Some 60 ] (Hashtbl.find chains out.Ir.id);
  let scales = Analysis.scales p in
  Alcotest.(check int) "output scale" 30 (Hashtbl.find scales out.Ir.id)

let test_fig2_always_rescale_needs_modswitch () =
  (* Figure 2(b): always-rescale leaves non-conforming chains. Level
     matching alone cannot repair them when the rescale values differ
     across paths (2^60 on the x path, 2^30 on the y path at the same
     position) — the paper omits the multi-pass modswitch rule this would
     need, which is why the production pipeline fixes the divisor at s_f. *)
  let p = Ir.copy (fig2_input ()) in
  ignore (Passes.always_rescale p);
  Alcotest.(check int) "rescale after every multiply" 4 (rescales p);
  let non_conforming q =
    try
      ignore (Analysis.chains q);
      false
    with Analysis.Analysis_error _ -> true
  in
  Alcotest.(check bool) "chains do not conform" true (non_conforming p);
  ignore (Passes.lazy_modswitch p);
  Alcotest.(check bool) "level matching alone cannot repair them" true (non_conforming p)

let test_fig2_compile_params () =
  (* End-to-end Algorithm 1 on Figure 2 with the paper's waterline. *)
  let c = Compile.run ~waterline:30 (fig2_input ()) in
  (* bit sizes: special 60, chain 60,60, then factors of 2^(30+30). *)
  Alcotest.(check (list int)) "bit sizes" [ 60; 60; 60; 60 ] c.Compile.params.Params.bit_sizes;
  Alcotest.(check int) "log Q" 240 c.Compile.params.Params.log_q;
  Alcotest.(check int) "log N from security table" 14 c.Compile.params.Params.log_n

let test_fig3_match_scale () =
  let c = Compile.run (fig3_input ()) in
  let p = c.Compile.program in
  (* Figure 3(c): no rescale, no modswitch, one scale-matching multiply by
     a constant 1 at 2^30. *)
  Alcotest.(check int) "no rescale" 0 (rescales p);
  Alcotest.(check int) "no modswitch" 0 (modswitches p);
  Alcotest.(check int) "one relinearize" 1 (relins p);
  let match_consts =
    List.filter
      (fun n -> match n.Ir.op with Ir.Constant (Ir.Const_scalar 1.0) -> true | _ -> false)
      p.Ir.all_nodes
  in
  Alcotest.(check int) "one matching constant" 1 (List.length match_consts);
  Alcotest.(check int) "at the difference scale" 30 (List.hd match_consts).Ir.decl_scale;
  (* q = {2^60, s_o}: bit sizes special + factors of 2^(60+30). *)
  Alcotest.(check (list int)) "bit sizes" [ 60; 60; 30 ] c.Compile.params.Params.bit_sizes

let test_fig5_eager_vs_lazy () =
  (* Eager shares one modswitch (Figure 5(c)); lazy inserts two (5(b)). *)
  let eager = Ir.copy (fig5_input ()) in
  ignore (Passes.waterline_rescale eager);
  ignore (Passes.eager_modswitch eager);
  Alcotest.(check int) "eager: one shared modswitch" 1 (modswitches eager);
  let lazy_p = Ir.copy (fig5_input ()) in
  ignore (Passes.waterline_rescale lazy_p);
  ignore (Passes.lazy_modswitch lazy_p);
  Alcotest.(check int) "lazy: one modswitch per add" 2 (modswitches lazy_p);
  (* Both validate after completing the pipeline. *)
  List.iter
    (fun p ->
      ignore (Passes.match_scale p);
      ignore (Passes.relinearize p);
      Validate.check_transformed p)
    [ eager; lazy_p ]

let test_reference_semantics () =
  let p = fig2_input () in
  let x = [| 0.5; -0.25; 1.0; 2.0; 0.1; -1.5; 0.0; 0.75 |] in
  let y = [| 1.0; 2.0; -1.0; 0.5; 0.25; -0.5; 3.0; 1.5 |] in
  let out = Reference.execute p [ ("x", Reference.Vec x); ("y", Reference.Vec y) ] in
  let expect = Array.init 8 (fun i -> x.(i) ** 2.0 *. (y.(i) ** 3.0)) in
  Alcotest.(check (array (float 1e-12))) "x^2 y^3" expect (List.assoc "out" out)

let test_reference_matches_compiled_reference () =
  (* FHE-specific instructions are identities under reference semantics,
     so compiling must not change reference results. *)
  let p = fig2_input () in
  let c = Compile.run ~waterline:30 p in
  let bind = [ ("x", Reference.Vec [| 0.5; 1.0 |]); ("y", Reference.Vec [| 2.0; -1.0 |]) ] in
  let a = Reference.execute p bind in
  let b = Reference.execute c.Compile.program bind in
  Alcotest.(check (array (float 1e-12))) "agree" (List.assoc "out" a) (List.assoc "out" b)

let test_rotation_steps () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let open B.Infix in
  B.output b "o" ~scale:30 ((x << 3) + (x >> 2) + (x << 3));
  let steps = Analysis.rotation_steps (B.program b) in
  Alcotest.(check (list int)) "signed dedup" [ -2; 3 ] steps

let test_rotations_on_plain_need_no_keys () =
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:30 "v" in
  let open B.Infix in
  B.output b "o" ~scale:30 (x + (v << 5));
  Alcotest.(check (list int)) "no keys" [] (Analysis.rotation_steps (B.program b))

let test_validate_rejects_fhe_ops_in_input () =
  let p = fig3_input () in
  let x = List.hd (Ir.inputs p) in
  ignore (Ir.insert_between p x Ir.Mod_switch []);
  Alcotest.(check bool) "raises" true
    (try
       Compile.run p |> ignore;
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.layer = Eva_diag.Diag.Validate)

let test_validate_catches_scale_mismatch () =
  (* Hand-build an invalid transformed program: add of operands at
     different scales, no match-scale fix. *)
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let y = Ir.add_node ~decl_scale:40 p (Ir.Input (Ir.Cipher, "y")) [] in
  let s = Ir.add_node p Ir.Add [ x; y ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ s ]);
  Alcotest.(check bool) "constraint 2" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d ->
       d.Eva_diag.Diag.code = Eva_diag.Diag.validate_scale
       && String.sub d.Eva_diag.Diag.message 0 12 = "constraint 2")

let test_validate_catches_unrelinearized () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let sq = Ir.add_node p Ir.Multiply [ x; x ] in
  let quad = Ir.add_node p Ir.Multiply [ sq; sq ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ quad ]);
  Alcotest.(check bool) "constraint 3" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d ->
       d.Eva_diag.Diag.code = Eva_diag.Diag.validate_poly_count
       && String.sub d.Eva_diag.Diag.message 0 12 = "constraint 3")

let test_validate_catches_big_rescale () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:70 p (Ir.Input (Ir.Cipher, "x")) [] in
  let r = Ir.add_node p (Ir.Rescale 65) [ x ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ r ]);
  Alcotest.(check bool) "constraint 4" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d ->
       d.Eva_diag.Diag.code = Eva_diag.Diag.validate_rescale
       && String.sub d.Eva_diag.Diag.message 0 12 = "constraint 4")

(* Two offending nodes: the report names the lower id, whatever order a
   table would iterate them in. *)
let test_validate_negative_scale_lowest_id () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:20 p (Ir.Input (Ir.Cipher, "x")) [] in
  let r1 = Ir.add_node p (Ir.Rescale 40) [ x ] in
  let r2 = Ir.add_node p (Ir.Rescale 50) [ x ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "b") [ r2 ]);
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "a") [ r1 ]);
  match Validate.check_transformed p with
  | () -> Alcotest.fail "negative scales accepted"
  | exception Eva_diag.Diag.Error d ->
      Alcotest.(check int) "code" Eva_diag.Diag.validate_scale d.Eva_diag.Diag.code;
      Alcotest.(check (option int)) "lowest offending id" (Some r1.Ir.id) d.Eva_diag.Diag.node_id;
      Alcotest.(check string) "message" "node 1: negative scale 2^-20" d.Eva_diag.Diag.message

(* A plaintext output has no modulus chain to select parameters from. *)
let test_params_reject_plain_output () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  let v = B.vector_input b ~scale:30 "v" in
  B.output b "y" ~scale:30 x;
  B.output b "z" ~scale:30 (B.add v v);
  Alcotest.check_raises "selection error" (Params.Selection_error "output node 4 is not a ciphertext") (fun () ->
      ignore (Compile.run (B.program b)))

(* k-term encrypted dot product: k cipher-cipher multiplies feeding one
   accumulation tree — the shape lazy relinearization collapses to a
   single key switch at the root. *)
let dot_input k =
  let b = B.create ~name:"dot" ~vec_size:16 () in
  let term i =
    B.mul (B.input b ~scale:30 (Printf.sprintf "x%d" i)) (B.input b ~scale:30 (Printf.sprintf "y%d" i))
  in
  let sum = List.fold_left B.add (term 0) (List.init (k - 1) (fun i -> term (i + 1))) in
  B.output b "out" ~scale:30 sum;
  B.program b

let test_lazy_relin_dot () =
  let k = 16 in
  (* The relin-count assertions are about the naive accumulation tree;
     auto-vectorization would rewrite it into one packed multiply. *)
  let lazy_c = Compile.run ~vectorize:false (dot_input k) in
  let eager_c = Compile.run ~eager_relin:true ~vectorize:false (dot_input k) in
  Alcotest.(check int) "lazy: one relin at the root" 1 (relins lazy_c.Compile.program);
  Alcotest.(check int) "eager: one relin per multiply" k (relins eager_c.Compile.program);
  Validate.check_transformed lazy_c.Compile.program;
  Validate.check_transformed eager_c.Compile.program

let test_lazy_relin_stops_at_rotate () =
  (* A rotation demands the canonical size, so the relin cannot sink
     past it — it lands between the product and the rotate. *)
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let y = B.input b ~scale:30 "y" in
  let open B.Infix in
  B.output b "out" ~scale:30 ((x * y) << 2);
  let c = Compile.run (B.program b) in
  let p = c.Compile.program in
  Alcotest.(check int) "one relin" 1 (relins p);
  let relin_node =
    List.find (fun n -> n.Ir.op = Ir.Relinearize) p.Ir.all_nodes
  in
  Alcotest.(check bool) "feeds the rotate" true
    (List.exists
       (fun u -> match u.Ir.op with Ir.Rotate_left _ -> true | _ -> false)
       relin_node.Ir.uses);
  Validate.check_transformed p

let test_lazy_relin_idempotent () =
  let p = Ir.copy (dot_input 8) in
  ignore (Passes.waterline_rescale p);
  ignore (Passes.eager_modswitch p);
  ignore (Passes.match_scale p);
  Alcotest.(check bool) "first run places relins" true (Passes.lazy_relinearize p);
  let n = Ir.node_count p in
  Alcotest.(check bool) "second run is a no-op" false (Passes.lazy_relinearize p);
  Alcotest.(check int) "no nodes added" n (Ir.node_count p);
  Validate.check_transformed p

let test_validate_size3_into_rotate () =
  (* EVA-E206: a size-3 product reaching a rotation without an
     intervening relinearize. *)
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let sq = Ir.add_node p Ir.Multiply [ x; x ] in
  let rot = Ir.add_node p (Ir.Rotate_left 1) [ sq ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ rot ]);
  Alcotest.(check bool) "EVA-E206 on rotate" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.code = Eva_diag.Diag.validate_relin_placement)

let test_validate_size3_into_output () =
  let p = Ir.create_program ~vec_size:8 () in
  let x = Ir.add_node ~decl_scale:30 p (Ir.Input (Ir.Cipher, "x")) [] in
  let sq = Ir.add_node p Ir.Multiply [ x; x ] in
  ignore (Ir.add_node ~decl_scale:30 p (Ir.Output "o") [ sq ]);
  Alcotest.(check bool) "EVA-E206 on output" true
    (try
       Validate.check_transformed p;
       false
     with Eva_diag.Diag.Error d -> d.Eva_diag.Diag.code = Eva_diag.Diag.validate_relin_placement)

let test_compile_is_nondestructive () =
  let p = fig2_input () in
  let before = Ir.node_count p in
  ignore (Compile.run ~waterline:30 p);
  Alcotest.(check int) "input untouched" before (Ir.node_count p)

let test_power_and_sum_slots () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "p5" ~scale:30 (B.power x 5);
  B.output b "s" ~scale:30 (B.sum_slots b ~span:4 x);
  let v = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 |] in
  let out = Reference.execute (B.program b) [ ("x", Reference.Vec v) ] in
  Alcotest.(check (array (float 1e-9))) "x^5" (Array.map (fun z -> z ** 5.0) v) (List.assoc "p5" out);
  Alcotest.(check (float 1e-9)) "slot sum" 10.0 (List.assoc "s" out).(0)

let test_polynomial_builder () =
  let b = B.create ~vec_size:8 () in
  let x = B.input b ~scale:30 "x" in
  B.output b "y" ~scale:30 (B.polynomial b ~scale:30 [ 1.0; 0.0; 2.0; -0.5 ] x);
  let v = Array.make 8 0.5 in
  let out = Reference.execute (B.program b) [ ("x", Reference.Vec v) ] in
  let expect = 1.0 +. (2.0 *. 0.25) -. (0.5 *. 0.125) in
  Alcotest.(check (float 1e-9)) "poly" expect (List.assoc "y" out).(0)

(* Random-program property: compiled programs preserve reference
   semantics and always validate. *)
let prop_compiled_validates =
  QCheck2.Test.make ~name:"compiled random programs validate and preserve reference semantics" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let p = Gen_programs.random_program seed in
      (* Raw reference equivalence at the source width: auto-vectorization
         would repack inputs and widen the graph (its own equivalence
         property lives in test_vectorize). *)
      let c = Compile.run ~vectorize:false p in
      Validate.check_transformed c.Compile.program;
      let st = Random.State.make [| seed; 7 |] in
      let vec () = Array.init 16 (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let bind = [ ("x", Reference.Vec (vec ())); ("y", Reference.Vec (vec ())) ] in
      let a = Reference.execute p bind in
      let b = Reference.execute c.Compile.program bind in
      List.for_all2
        (fun (na, va) (nb, vb) -> na = nb && Array.for_all2 (fun p q -> Float.abs (p -. q) < 1e-9) va vb)
        a b)

let prop_levels_bounded_by_depth =
  QCheck2.Test.make ~name:"output chain length never exceeds multiplicative depth" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let p = Gen_programs.random_program seed in
      let c = Compile.run p in
      let depth = Analysis.multiplicative_depth c.Compile.program in
      let chains = Analysis.chains c.Compile.program in
      List.for_all (fun o -> List.length (Hashtbl.find chains o.Ir.id) <= depth) (Ir.outputs c.Compile.program))

(* Sinking relins past the size-3 segment must not change what the
   program computes: both placements execute under CKKS within the same
   error bound of the exact reference result. *)
let prop_lazy_matches_eager_encrypted =
  QCheck2.Test.make ~name:"lazy and eager relin placements decrypt alike" ~count:5
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let p = Gen_programs.random_program seed in
      let st = Random.State.make [| seed; 13 |] in
      let vec () = Array.init 16 (fun _ -> Random.State.float st 2.0 -. 1.0) in
      let bind = [ ("x", Reference.Vec (vec ())); ("y", Reference.Vec (vec ())) ] in
      let expect = Reference.execute p bind in
      let magnitude =
        List.fold_left
          (fun acc (_, v) -> Array.fold_left (fun m z -> Float.max m (Float.abs z)) acc v)
          1.0 expect
      in
      let err eager_relin =
        let c = Compile.run ~eager_relin p in
        let r = Eva_core.Executor.execute ~seed:3 ~ignore_security:true ~log_n:9 c bind in
        Eva_core.Executor.max_abs_error r.Eva_core.Executor.outputs expect
      in
      let bound = 1e-3 *. magnitude in
      err false < bound && err true < bound)

(* Byte-identity pin. Each digest covers the serialized compiled program,
   the selected parameters, and every node's (id, op, parameter ids,
   declared scale) in [all_nodes] order, so any change to node numbering,
   visiting order or selection shows. The expected values were recorded
   with the compiler as it stood before analyses and passes moved from
   per-analysis hash tables to one id-indexed sweep; the compiler must
   keep reproducing them. *)
module N = Eva_tensor.Network
module Nets = Eva_tensor.Networks

let compiled_digest (c : Compile.compiled) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Eva_core.Serialize.to_string c.Compile.program);
  Buffer.add_string b (Format.asprintf "%a" Params.pp c.Compile.params);
  List.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "%d %s [%s] %d;" n.Ir.id (Format.asprintf "%a" Ir.pp_op n.Ir.op)
           (String.concat "," (Array.to_list (Array.map (fun m -> string_of_int m.Ir.id) n.Ir.parms)))
           n.Ir.decl_scale))
    c.Compile.program.Ir.all_nodes;
  Digest.to_hex (Digest.string (Buffer.contents b))

let lowered ?(mode = `Eva) net =
  (N.lower ~mode ~scales:(Nets.scales_for net) net (N.random_weights net ~seed:1)).N.program

let pinned_digests =
  [
    ("mini_lenet", "567ee6e6b632341038d798cc10fc0bf0");
    ("mini_industrial", "7ea795d89a6888f8a80ad813829e5629");
    ("mini_squeezenet", "94c3d6a3ec551d533a69d46df51646ff");
    ("lenet5_small", "c39721a2e24f7eda335b89b4b9472ffa");
    ("mini_lenet lazy-insertion", "567ee6e6b632341038d798cc10fc0bf0");
    ("mini_lenet eager-relin", "5bc8e0a0036a8cf4fc9062b133007235");
    ("mini_lenet batch 4", "5ea53217ab1962a69fca338a9627ea5c");
    ("mini_industrial lazy-insertion", "7ea795d89a6888f8a80ad813829e5629");
    ("mini_squeezenet lazy-insertion", "94c3d6a3ec551d533a69d46df51646ff");
    ("mini_lenet chet", "a1ffd1aa2492155a12d7e43498450e67");
    ("mini_lenet optimize", "bab27b018ddeee35266031e38dad6fc1");
    ("3-dimensional Path Length", "5bed3702c4439ee4e7730f37f8a794b3");
    ("3-dimensional Path Length lazy-insertion", "bfb44de865a2997194193ddd3f87740b");
    ("Linear Regression", "671aaeff0d697fd343b97364e3cdcc21");
    ("Linear Regression lazy-insertion", "671aaeff0d697fd343b97364e3cdcc21");
    ("Polynomial Regression", "ca7a780da2e720b7d4d8308c37640f20");
    ("Polynomial Regression lazy-insertion", "436c249ea883b0b73c3d0c59bf9f1ba5");
    ("Multivariate Regression", "9ed79f001c0724f5dae039120b478524");
    ("Multivariate Regression lazy-insertion", "9ed79f001c0724f5dae039120b478524");
    ("Sobel Filter Detection", "f45da003fc3acd00b2288ea99c375300");
    ("Sobel Filter Detection lazy-insertion", "d0391cc188b1416c93dd98deef7dfbf9");
    ("Harris Corner Detection", "515a2b445634c926b3e620488191c63a");
    ("Harris Corner Detection lazy-insertion", "515a2b445634c926b3e620488191c63a");
    ("ok-scalar-dot8.eva", "bc6ea7866c6dc061ab27bb6bc8dfa52c");
    ("ok-scalar-poly4.eva", "c1ac93e8d0ed9dd3f8273ce017ae8b83");
  ]

let pinned_programs () =
  let mini = lowered Nets.mini_lenet in
  let apps =
    List.concat_map
      (fun (a : Eva_apps.Apps.app) ->
        [
          (a.Eva_apps.Apps.app_name, fun () -> Compile.run (a.Eva_apps.Apps.build ()));
          ( a.Eva_apps.Apps.app_name ^ " lazy-insertion",
            fun () -> Compile.run ~policy:Passes.Lazy_insertion (a.Eva_apps.Apps.build ()) );
        ])
      Eva_apps.Apps.all
  in
  let corpus =
    List.filter_map
      (fun f ->
        if String.length f > 3 && String.sub f 0 3 = "ok-" then
          Some (f, fun () -> Compile.run (Eva_core.Serialize.of_file (Filename.concat "corpus" f)))
        else None)
      (List.sort compare (Array.to_list (Sys.readdir "corpus")))
  in
  [
    ("mini_lenet", fun () -> Compile.run mini);
    ("mini_industrial", fun () -> Compile.run (lowered Nets.mini_industrial));
    ("mini_squeezenet", fun () -> Compile.run (lowered Nets.mini_squeezenet));
    ("lenet5_small", fun () -> Compile.run (lowered Nets.lenet5_small));
    ("mini_lenet lazy-insertion", fun () -> Compile.run ~policy:Passes.Lazy_insertion mini);
    ("mini_lenet eager-relin", fun () -> Compile.run ~eager_relin:true mini);
    ("mini_lenet batch 4", fun () -> Compile.run ~batch:4 mini);
    ( "mini_industrial lazy-insertion",
      fun () -> Compile.run ~policy:Passes.Lazy_insertion (lowered Nets.mini_industrial) );
    ( "mini_squeezenet lazy-insertion",
      fun () -> Compile.run ~policy:Passes.Lazy_insertion (lowered Nets.mini_squeezenet) );
    ("mini_lenet chet", fun () -> Compile.run (lowered ~mode:`Chet Nets.mini_lenet));
    ("mini_lenet optimize", fun () -> Compile.run ~optimize:true mini);
  ]
  @ apps @ corpus

let test_pinned_digests () =
  let programs = pinned_programs () in
  Alcotest.(check (list string)) "pinned program set" (List.map fst pinned_digests) (List.map fst programs);
  List.iter
    (fun (name, compile) ->
      Alcotest.(check string) name (List.assoc name pinned_digests) (compiled_digest (compile ())))
    programs

(* Deterministic allocation gate: minor-heap words allocated per output
   node while compiling LeNet-5-small. Compilation runs on the calling
   domain only, so the count does not depend on POOL_WORKERS. *)
let words_per_node_budget = 208.0

let test_compile_words_per_node () =
  let input = lowered Nets.lenet5_small in
  let w0 = Gc.minor_words () in
  let c = Compile.run input in
  let words = Gc.minor_words () -. w0 in
  let per_node = words /. float_of_int (Ir.node_count c.Compile.program) in
  Printf.printf "Compile.run LeNet-5-small: %.1f minor words per output node (budget %.0f)\n" per_node
    words_per_node_budget;
  Alcotest.(check bool) "within budget" true (per_node <= words_per_node_budget)

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "compiler"
    [
      ( "paper figures",
        [
          Alcotest.test_case "fig 2(d) waterline" `Quick test_fig2_waterline;
          Alcotest.test_case "fig 2(b/c) always+lazy" `Quick test_fig2_always_rescale_needs_modswitch;
          Alcotest.test_case "fig 2 parameters" `Quick test_fig2_compile_params;
          Alcotest.test_case "fig 3(c) match scale" `Quick test_fig3_match_scale;
          Alcotest.test_case "fig 5 eager vs lazy" `Quick test_fig5_eager_vs_lazy;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "reference execution" `Quick test_reference_semantics;
          Alcotest.test_case "compile preserves reference" `Quick test_reference_matches_compiled_reference;
          Alcotest.test_case "rotation steps" `Quick test_rotation_steps;
          Alcotest.test_case "plain rotations keyless" `Quick test_rotations_on_plain_need_no_keys;
          Alcotest.test_case "power & sum_slots" `Quick test_power_and_sum_slots;
          Alcotest.test_case "polynomial" `Quick test_polynomial_builder;
        ] );
      ( "validation",
        [
          Alcotest.test_case "input rejects FHE ops" `Quick test_validate_rejects_fhe_ops_in_input;
          Alcotest.test_case "scale mismatch" `Quick test_validate_catches_scale_mismatch;
          Alcotest.test_case "unrelinearized" `Quick test_validate_catches_unrelinearized;
          Alcotest.test_case "oversized rescale" `Quick test_validate_catches_big_rescale;
          Alcotest.test_case "negative scale: lowest id" `Quick test_validate_negative_scale_lowest_id;
          Alcotest.test_case "plain output rejected" `Quick test_params_reject_plain_output;
          Alcotest.test_case "compile copies" `Quick test_compile_is_nondestructive;
        ] );
      ( "lazy relinearization",
        [
          Alcotest.test_case "dot product: k relins -> 1" `Quick test_lazy_relin_dot;
          Alcotest.test_case "stops at rotate" `Quick test_lazy_relin_stops_at_rotate;
          Alcotest.test_case "idempotent" `Quick test_lazy_relin_idempotent;
          Alcotest.test_case "E206: size 3 into rotate" `Quick test_validate_size3_into_rotate;
          Alcotest.test_case "E206: size 3 into output" `Quick test_validate_size3_into_output;
        ] );
      ( "byte identity",
        [
          Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
          Alcotest.test_case "words per output node" `Quick test_compile_words_per_node;
        ] );
      ( "property",
        [ qt prop_compiled_validates; qt prop_levels_bounded_by_depth; qt prop_lazy_matches_eager_encrypted ]
      );
    ]
