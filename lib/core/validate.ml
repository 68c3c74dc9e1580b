module Diag = Eva_diag.Diag

let fail ?node_id ~code fmt = Diag.error ?node_id ~layer:Diag.Validate ~code fmt

let arity = function
  | Ir.Constant _ | Ir.Input _ -> 0
  | Ir.Negate | Ir.Relinearize | Ir.Mod_switch | Ir.Rescale _ | Ir.Output _ | Ir.Rotate_left _ | Ir.Rotate_right _
    -> 1
  | Ir.Add | Ir.Sub | Ir.Multiply -> 2

let check_well_formed p =
  List.iter
    (fun n ->
      let expect = arity n.Ir.op in
      if Array.length n.Ir.parms <> expect then
        fail ~node_id:n.Ir.id ~code:Diag.validate_arity "node %d (%s): expected %d parameters, got %d"
          n.Ir.id (Ir.op_name n.Ir.op) expect (Array.length n.Ir.parms);
      match n.Ir.op with
      | Ir.Constant (Ir.Const_vector v) ->
          let len = Array.length v in
          if len = 0 || p.Ir.vec_size mod len <> 0 then
            fail ~node_id:n.Ir.id ~code:Diag.validate_structure
              "node %d: constant vector size %d does not divide vec_size %d" n.Ir.id len p.Ir.vec_size
      | Ir.Output _ ->
          if n.Ir.uses <> [] then
            fail ~node_id:n.Ir.id ~code:Diag.validate_structure "node %d: output nodes must be leaves"
              n.Ir.id
      | _ -> ())
    p.Ir.all_nodes;
  if Ir.outputs p = [] then fail ~code:Diag.validate_structure "program has no outputs"

let check_input_program p =
  check_well_formed p;
  (* Acyclicity: the topological sort fails on a cycle. *)
  ignore (Ir.topological p);
  List.iter
    (fun n ->
      if Ir.is_fhe_specific n.Ir.op then
        fail ~node_id:n.Ir.id ~code:Diag.validate_structure
          "node %d: %s is not allowed in input programs" n.Ir.id (Ir.op_name n.Ir.op))
    p.Ir.all_nodes

let check_transformed_sweep ?(s_f = Passes.default_s_f) p =
  check_well_formed p;
  let s = Analysis.sweep p in
  let is_cipher n = s.Analysis.ty.(n.Ir.id) = Ir.Cipher in
  let scale n = s.Analysis.scale.(n.Ir.id) in
  let polys n = s.Analysis.polys.(n.Ir.id) in
  (* Constraint 1: the sweep records the first non-conforming or unequal
     operand chain. *)
  Option.iter
    (fun msg -> fail ~code:Diag.validate_structure "constraint 1 violated: %s" msg)
    s.Analysis.chain_error;
  (* Constraint 2: ADD/SUB cipher operands at equal scale. *)
  List.iter
    (fun n ->
      match n.Ir.op with
      | Ir.Add | Ir.Sub ->
          let a = n.Ir.parms.(0) and b = n.Ir.parms.(1) in
          if is_cipher a && is_cipher b && scale a <> scale b then
            fail ~node_id:n.Ir.id ~code:Diag.validate_scale
              "constraint 2 violated: node %d (%s) operands at scales 2^%d and 2^%d" n.Ir.id
              (Ir.op_name n.Ir.op) (scale a) (scale b)
      | _ -> ())
    p.Ir.all_nodes;
  (* Constraint 3: MULTIPLY operands have exactly 2 polynomials. *)
  List.iter
    (fun n ->
      match n.Ir.op with
      | Ir.Multiply ->
          Array.iter
            (fun parent ->
              if is_cipher parent && polys parent <> 2 then
                fail ~node_id:n.Ir.id ~code:Diag.validate_poly_count
                  "constraint 3 violated: node %d multiplies a ciphertext with %d polynomials" n.Ir.id
                  (polys parent))
            n.Ir.parms
      | Ir.Relinearize ->
          if polys n.Ir.parms.(0) <> 3 then
            fail ~node_id:n.Ir.id ~code:Diag.validate_poly_count
              "node %d: relinearize expects a 3-polynomial ciphertext, got %d" n.Ir.id
              (polys n.Ir.parms.(0))
      | _ -> ())
    p.Ir.all_nodes;
  (* Relin placement: ROTATE operands and OUTPUTs must be size 2.  The
     Galois automorphism only has keys for canonical 2-polynomial
     ciphertexts, and clients decrypt outputs with the plain secret key;
     a size-3 value reaching either means a RELINEARIZE is missing on
     that path (lazy placement stops exactly at these frontiers). *)
  List.iter
    (fun n ->
      match n.Ir.op with
      | Ir.Rotate_left _ | Ir.Rotate_right _ | Ir.Output _ ->
          let parent = n.Ir.parms.(0) in
          if is_cipher parent && polys parent <> 2 then
            fail ~node_id:n.Ir.id ~code:Diag.validate_relin_placement
              "node %d: %s consumes a ciphertext with %d polynomials (missing relinearize)" n.Ir.id
              (Ir.op_name n.Ir.op) (polys parent)
      | _ -> ())
    p.Ir.all_nodes;
  (* Constraint 4: rescale divisors bounded by s_f. *)
  List.iter
    (fun n ->
      match n.Ir.op with
      | Ir.Rescale k ->
          if k > s_f then
            fail ~node_id:n.Ir.id ~code:Diag.validate_rescale
              "constraint 4 violated: node %d rescales by 2^%d > 2^%d" n.Ir.id k s_f;
          if k <= 0 then
            fail ~node_id:n.Ir.id ~code:Diag.validate_rescale "node %d: rescale by 2^%d" n.Ir.id k
      | _ -> ())
    p.Ir.all_nodes;
  (* Scales must stay positive (message would be destroyed otherwise);
     the lowest offending node id is reported. *)
  let negative =
    List.fold_left (fun acc n -> if scale n < 0 then min acc n.Ir.id else acc) max_int p.Ir.all_nodes
  in
  if negative < max_int then
    fail ~node_id:negative ~code:Diag.validate_scale "node %d: negative scale 2^%d" negative
      s.Analysis.scale.(negative);
  s

let check_transformed ?s_f p = ignore (check_transformed_sweep ?s_f p)

let check_packing (pk : Vectorize.packing) p =
  let pow2 k = k >= 1 && k land (k - 1) = 0 in
  if not (pow2 pk.Vectorize.base) then fail ~code:Diag.validate_packing "packing: base width %d is not a power of two" pk.Vectorize.base;
  if p.Ir.vec_size mod pk.Vectorize.base <> 0 then
    fail ~code:Diag.validate_packing "packing: base width %d does not divide vec_size %d" pk.Vectorize.base p.Ir.vec_size;
  let inputs = Hashtbl.create 16 and outputs = Hashtbl.create 16 in
  List.iter
    (fun n -> match n.Ir.op with Ir.Input (t, nm) -> Hashtbl.replace inputs nm t | _ -> ())
    (Ir.inputs p);
  List.iter
    (fun n -> match n.Ir.op with Ir.Output nm -> Hashtbl.replace outputs nm () | _ -> ())
    (Ir.outputs p);
  let seen_in = Hashtbl.create 16 and seen_out = Hashtbl.create 16 in
  List.iter
    (fun (g : Vectorize.in_group) ->
      let k = Array.length g.Vectorize.members in
      if not (pow2 g.Vectorize.in_span) then
        fail ~code:Diag.validate_packing "packing: input group %S span %d is not a power of two" g.Vectorize.packed_input
          g.Vectorize.in_span;
      if g.Vectorize.in_span * pk.Vectorize.base > p.Ir.vec_size then
        fail ~code:Diag.validate_packing "packing: input group %S needs %d slots but vec_size is %d" g.Vectorize.packed_input
          (g.Vectorize.in_span * pk.Vectorize.base) p.Ir.vec_size;
      if k < 1 || k > g.Vectorize.in_span then
        fail ~code:Diag.validate_packing "packing: input group %S has %d members for span %d" g.Vectorize.packed_input k
          g.Vectorize.in_span;
      if Hashtbl.mem seen_in g.Vectorize.packed_input then
        fail ~code:Diag.validate_packing "packing: duplicate packed input %S" g.Vectorize.packed_input;
      Hashtbl.replace seen_in g.Vectorize.packed_input ();
      match Hashtbl.find_opt inputs g.Vectorize.packed_input with
      | None -> fail ~code:Diag.validate_packing "packing: packed input %S is not an input of the program" g.Vectorize.packed_input
      | Some t ->
          if t <> g.Vectorize.in_type then
            fail ~code:Diag.validate_packing "packing: packed input %S is declared %s but packed as %s" g.Vectorize.packed_input
              (Ir.value_type_name t) (Ir.value_type_name g.Vectorize.in_type))
    pk.Vectorize.in_groups;
  List.iter
    (fun (g : Vectorize.out_group) ->
      let k = Array.length g.Vectorize.out_members in
      if not (pow2 g.Vectorize.out_span) then
        fail ~code:Diag.validate_packing "packing: output group %S span %d is not a power of two" g.Vectorize.packed_output
          g.Vectorize.out_span;
      if g.Vectorize.out_span * pk.Vectorize.base > p.Ir.vec_size then
        fail ~code:Diag.validate_packing "packing: output group %S needs %d slots but vec_size is %d" g.Vectorize.packed_output
          (g.Vectorize.out_span * pk.Vectorize.base) p.Ir.vec_size;
      if k < 1 || k > g.Vectorize.out_span then
        fail ~code:Diag.validate_packing "packing: output group %S has %d members for span %d" g.Vectorize.packed_output k
          g.Vectorize.out_span;
      if Hashtbl.mem seen_out g.Vectorize.packed_output then
        fail ~code:Diag.validate_packing "packing: duplicate packed output %S" g.Vectorize.packed_output;
      Hashtbl.replace seen_out g.Vectorize.packed_output ();
      if not (Hashtbl.mem outputs g.Vectorize.packed_output) then
        fail ~code:Diag.validate_packing "packing: packed output %S is not an output of the program" g.Vectorize.packed_output)
    pk.Vectorize.out_groups

let check_batched ~lanes p =
  if lanes < 1 || lanes land (lanes - 1) <> 0 then
    fail ~code:Diag.validate_batch "batched program: lanes %d is not a power of two" lanes;
  if p.Ir.vec_size mod lanes <> 0 then
    fail ~code:Diag.validate_batch "batched program: vec_size %d is not a multiple of lanes %d"
      p.Ir.vec_size lanes;
  List.iter
    (fun n ->
      match n.Ir.op with
      | Ir.Rotate_left k | Ir.Rotate_right k ->
          if k mod lanes <> 0 then
            fail ~node_id:n.Ir.id ~code:Diag.validate_batch
              "node %d: rotation step %d is not lane-local (not a multiple of %d lanes)" n.Ir.id k
              lanes
      | Ir.Constant (Ir.Const_vector v) ->
          (* Tiling a length-L constant over interleaved lanes keeps lanes
             independent iff L is lane-aligned (a stride-expanded per-lane
             constant) or L = 1 (uniform over every slot). *)
          let len = Array.length v in
          if len <> 1 && len mod lanes <> 0 then
            fail ~node_id:n.Ir.id ~code:Diag.validate_batch
              "node %d: constant vector length %d tiles across %d-lane boundaries" n.Ir.id len lanes
      | _ -> ())
    p.Ir.all_nodes
