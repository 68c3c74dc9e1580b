(* HECO-style auto-vectorization: rewrite naive scalar-shaped IR into
   packed rotation-tree SIMD programs.

   A scalar-shaped program pays one ciphertext per element: k
   per-element inputs flowing through k isomorphic chains, combined by
   a linear accumulation fold (a chain of ADDs) or returned through k
   per-element outputs. This pass detects such groups, assigns each
   chain to a lane of one packed ciphertext, and rewrites the group
   into single SIMD ops plus a log-depth rotate-and-sum reduction.

   Slot layout is lane-major ("block"): the program is widened from
   [vs] slots to [W = vs * max_span] slots, and lane [b] of a width-k
   group owns the slot block [b*vs, (b+1)*vs). Because both the
   reference semantics and the executor tile every dividing-length
   value periodically, and every op preserves periodicity, all values
   the lanes share (P_shared nodes below) are replicated per block —
   so the rewrite is exactly semantics-preserving for arbitrary
   bindings, not just for scalars.

   Reductions over a group of span [s] lanes lower to the doubling
   ladder with rotation steps vs, 2*vs, ..., (s/2)*vs: every slot of
   the result then holds the full lane sum, uniformly, so consumers of
   the old fold root see the same (vs-periodic) value they always did.
   Non-power-of-two groups pad with zero lanes; when the padding is
   not provably zero (a shared term would leak into pad lanes) the
   packed value is masked by a 0/1 block mask first.

   The pass bails per group — mixed ops, non-shared rotations,
   per-lane vector constants, mixed input types or scales, groups of
   one, groups with no ciphertext input to pack, or groups whose span
   would exceed the slot budget all leave the original chain alone. *)

type in_group = {
  packed_input : string;  (* name of the widened Input node *)
  members : string array;  (* original per-element input names, lane order *)
  in_type : Ir.value_type;  (* Cipher, or Vector for packed plaintext lanes *)
  in_scale : int;
  in_span : int;  (* lanes reserved: next_pow2 (Array.length members) *)
}

type out_group = {
  packed_output : string;
  out_members : string array;  (* original output names, lane order *)
  out_span : int;
}

type packing = { base : int; in_groups : in_group list; out_groups : out_group list }

(* 0/1 block masks are encoded at this scale: large enough that CKKS
   encoding error is negligible against the waterline, small enough not
   to cost an extra level by itself. *)
let mask_scale = 20

(* Widest program the pass will produce: span * vs above this bails the
   group (2^13 slots = the N = 2^14 ring, the largest the parameter
   search reaches for deep programs). *)
let max_packed_slots = 8192

(* ------------------------------------------------------------------ *)
(* Planning: lockstep isomorphism walk over candidate lanes            *)
(* ------------------------------------------------------------------ *)

(* One packed expression, planned over k lanes of the original graph. *)
type pexpr =
  | P_shared of Ir.node  (* every lane is this same node (any op) *)
  | P_input of Ir.value_type * int * string array  (* lane type, scale, member names *)
  | P_const of int * float array  (* scale, per-lane scalar constants *)
  | P_unop of Ir.op * pexpr
  | P_binop of Ir.op * pexpr * pexpr

exception Bail

(* Walk k lanes in lockstep. [forbid] holds node ids that must not
   appear at a non-shared position (used to keep output grouping from
   re-expanding a fold that reduction planning already claimed). *)
let rec walk ?forbid (lanes : Ir.node array) =
  let n0 = lanes.(0) in
  if Array.for_all (fun n -> n == n0) lanes then P_shared n0
  else begin
    (match forbid with
    | Some tbl -> Array.iter (fun n -> if Hashtbl.mem tbl n.Ir.id then raise Bail) lanes
    | None -> ());
    match n0.Ir.op with
    | Ir.Input (t0, _) ->
        let scale = n0.Ir.decl_scale in
        let names =
          Array.map
            (fun n ->
              match n.Ir.op with
              | Ir.Input (t, nm) when t = t0 && n.Ir.decl_scale = scale -> nm
              | _ -> raise Bail)
            lanes
        in
        P_input (t0, scale, names)
    | Ir.Constant (Ir.Const_scalar _) ->
        let scale = n0.Ir.decl_scale in
        let vals =
          Array.map
            (fun n ->
              match n.Ir.op with
              | Ir.Constant (Ir.Const_scalar s) when n.Ir.decl_scale = scale -> s
              | _ -> raise Bail)
            lanes
        in
        P_const (scale, vals)
    | Ir.Negate ->
        Array.iter (fun n -> match n.Ir.op with Ir.Negate -> () | _ -> raise Bail) lanes;
        P_unop (Ir.Negate, walk ?forbid (Array.map (fun n -> n.Ir.parms.(0)) lanes))
    | (Ir.Add | Ir.Sub | Ir.Multiply) as op ->
        Array.iter (fun n -> if n.Ir.op <> op then raise Bail) lanes;
        P_binop
          ( op,
            walk ?forbid (Array.map (fun n -> n.Ir.parms.(0)) lanes),
            walk ?forbid (Array.map (fun n -> n.Ir.parms.(1)) lanes) )
    | _ -> raise Bail
  end

(* Packing only pays when it folds ciphertexts together. *)
let rec has_cipher_input = function
  | P_input (Ir.Cipher, _, _) -> true
  | P_unop (_, e) -> has_cipher_input e
  | P_binop (_, a, b) -> has_cipher_input a || has_cipher_input b
  | P_shared _ | P_input _ | P_const _ -> false

(* Do the pad lanes of a non-power-of-two group evaluate to zero? Pad
   lanes of a packed input are synthesized zero and pad entries of a
   packed constant are chosen zero; shared values bleed into pad lanes
   (they are periodic over the whole vector). Zero absorbs through
   NEGATE and either side of a MULTIPLY. *)
let rec pad_zero = function
  | P_input _ | P_const _ -> true
  | P_shared _ -> false
  | P_unop (_, e) -> pad_zero e
  | P_binop (Ir.Multiply, a, b) -> pad_zero a || pad_zero b
  | P_binop (_, a, b) -> pad_zero a && pad_zero b

(* Divide instead of multiplying: a huge (untrusted) vec_size must fail
   the slot budget, not overflow past it. *)
let fits_budget ~vs span = vs <= max_packed_slots / span

let admissible ~vs ~k pe = k >= 2 && has_cipher_input pe && fits_budget ~vs (Simd.next_pow2 k)

(* --- reduction groups: maximal ADD fold roots ---------------------- *)

type rplan = { rroot : Ir.node; rpe : pexpr; rk : int; rspan : int }

let is_add n = match n.Ir.op with Ir.Add -> true | _ -> false

(* A maximal fold root: an ADD none of whose consumers is an ADD. *)
let is_fold_root n = is_add n && not (List.exists is_add n.Ir.uses)

(* Flatten the fold into its terms; interior ADDs are expanded only
   when this chain is their only consumer, so a subterm shared with
   the rest of the graph stays a single (shared) lane. *)
let flatten root =
  let rec go n =
    if is_add n && (n == root || match n.Ir.uses with [ _ ] -> true | _ -> false) then
      go n.Ir.parms.(0) @ go n.Ir.parms.(1)
    else [ n ]
  in
  go root

let plan_reductions p vs =
  List.filter_map
    (fun n ->
      if not (is_fold_root n) then None
      else begin
        let terms = Array.of_list (flatten n) in
        let k = Array.length terms in
        match walk terms with
        | pe when admissible ~vs ~k pe -> Some { rroot = n; rpe = pe; rk = k; rspan = Simd.next_pow2 k }
        | _ -> None
        | exception Bail -> None
      end)
    (Ir.topological p)

(* --- output groups: isomorphic elementwise outputs ----------------- *)

type oplan = { onodes : Ir.node array; ope : pexpr; ok : int; ospan : int; oscale : int }

let plan_outputs p vs ~claimed =
  (* Greedy: each output joins the first group of the same declared
     scale whose lanes stay isomorphic with it, else starts its own.
     Groups that end up singletons (or inadmissible) are dropped. *)
  let groups : (int * Ir.node list ref) list ref = ref [] in
  List.iter
    (fun o ->
      let rec place = function
        | [] -> groups := !groups @ [ (o.Ir.decl_scale, ref [ o ]) ]
        | (scale, members) :: rest ->
            if
              scale = o.Ir.decl_scale
              && fits_budget ~vs (Simd.next_pow2 (List.length !members + 1))
              &&
              match
                walk ~forbid:claimed
                  (Array.of_list (List.rev_map (fun n -> n.Ir.parms.(0)) (o :: !members)))
              with
              | _ -> true
              | exception Bail -> false
            then members := !members @ [ o ]
            else place rest
      in
      place !groups)
    (Ir.outputs p);
  List.filter_map
    (fun (scale, members) ->
      let onodes = Array.of_list !members in
      let k = Array.length onodes in
      match walk ~forbid:claimed (Array.map (fun n -> n.Ir.parms.(0)) onodes) with
      | pe when admissible ~vs ~k pe ->
          Some { onodes; ope = pe; ok = k; ospan = Simd.next_pow2 k; oscale = scale }
      | _ -> None
      | exception Bail -> None)
    !groups

(* ------------------------------------------------------------------ *)
(* Building the widened program                                        *)
(* ------------------------------------------------------------------ *)

let fresh_name used base =
  if not (Hashtbl.mem used base) then begin
    Hashtbl.replace used base ();
    base
  end
  else begin
    let rec go i =
      let cand = Printf.sprintf "%s#%d" base i in
      if Hashtbl.mem used cand then go (i + 1)
      else begin
        Hashtbl.replace used cand ();
        cand
      end
    in
    go 2
  end

let group_name names =
  let k = Array.length names in
  if k = 1 then names.(0) else Printf.sprintf "%s..%s/%d" names.(0) names.(k - 1) k

let build p ~vs rplans oplans =
  let span_max =
    List.fold_left max 1 (List.map (fun r -> r.rspan) rplans @ List.map (fun o -> o.ospan) oplans)
  in
  let w = vs * span_max in
  let q = Ir.create_program ~name:p.Ir.prog_name ~vec_size:w () in
  let map = Array.make p.Ir.next_id None in
  let rec clone n =
    match map.(n.Ir.id) with
    | Some m -> m
    | None ->
        let parms = Array.to_list (Array.map clone n.Ir.parms) in
        let m = Ir.add_node ~decl_scale:n.Ir.decl_scale q n.Ir.op parms in
        map.(n.Ir.id) <- Some m;
        m
  in
  let used_inputs = Hashtbl.create 16 and used_outputs = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match n.Ir.op with Ir.Input (_, nm) -> Hashtbl.replace used_inputs nm () | _ -> ())
    (Ir.inputs p);
  List.iter
    (fun n ->
      match n.Ir.op with Ir.Output nm -> Hashtbl.replace used_outputs nm () | _ -> ())
    (Ir.outputs p);
  (* Packed inputs are deduplicated: the same member list at the same
     type, scale and span packs once however many groups mention it. *)
  let packed_inputs = Hashtbl.create 8 in
  let in_groups = ref [] in
  let packed_input ~t ~scale ~span names =
    let ptype = match t with Ir.Cipher -> Ir.Cipher | Ir.Vector | Ir.Scalar -> Ir.Vector in
    let key = (ptype, scale, span, Array.to_list names) in
    match Hashtbl.find_opt packed_inputs key with
    | Some node -> node
    | None ->
        let name = fresh_name used_inputs (group_name names) in
        let node = Ir.add_node ~decl_scale:scale q (Ir.Input (ptype, name)) [] in
        Hashtbl.replace packed_inputs key node;
        in_groups :=
          { packed_input = name; members = Array.copy names; in_type = ptype; in_scale = scale; in_span = span }
          :: !in_groups;
        node
  in
  let rec emit ~span = function
    | P_shared n -> clone n
    | P_input (t, scale, names) -> packed_input ~t ~scale ~span names
    | P_const (scale, vals) ->
        let k = Array.length vals in
        let v = Array.init (span * vs) (fun i -> if i / vs < k then vals.(i / vs) else 0.0) in
        Ir.add_node ~decl_scale:scale q (Ir.Constant (Ir.Const_vector v)) []
    | P_unop (op, e) -> Ir.add_node q op [ emit ~span e ]
    | P_binop (op, a, b) ->
        let ea = emit ~span a in
        let eb = emit ~span b in
        Ir.add_node q op [ ea; eb ]
  in
  (* Reductions first, in topological order of their roots, so a fold
     shared by a later group (or by an output group) resolves through
     [map] to its already-reduced value. *)
  List.iter
    (fun rp ->
      let packed = emit ~span:rp.rspan rp.rpe in
      let masked =
        if rp.rk = rp.rspan || pad_zero rp.rpe then packed
        else begin
          let mask = Array.init (rp.rspan * vs) (fun i -> if i / vs < rp.rk then 1.0 else 0.0) in
          let m = Ir.add_node ~decl_scale:mask_scale q (Ir.Constant (Ir.Const_vector mask)) [] in
          Ir.add_node q Ir.Multiply [ packed; m ]
        end
      in
      let reduced =
        Simd.rotate_and_sum
          ~add:(fun a b -> Ir.add_node q Ir.Add [ a; b ])
          ~rotate:(fun x s -> Ir.add_node q (Ir.Rotate_left s) [ x ])
          ~count:rp.rspan ~step:vs masked
      in
      map.(rp.rroot.Ir.id) <- Some reduced)
    rplans;
  (* Grouped outputs become one packed output each; the rest clone. *)
  let grouped = Hashtbl.create 16 in
  let out_groups = ref [] in
  List.iter
    (fun op ->
      Array.iter (fun o -> Hashtbl.replace grouped o.Ir.id ()) op.onodes;
      let packed = emit ~span:op.ospan op.ope in
      let out_members =
        Array.map (fun o -> match o.Ir.op with Ir.Output nm -> nm | _ -> assert false) op.onodes
      in
      let name = fresh_name used_outputs (group_name out_members) in
      ignore (Ir.add_node ~decl_scale:op.oscale q (Ir.Output name) [ packed ]);
      out_groups := { packed_output = name; out_members; out_span = op.ospan } :: !out_groups)
    oplans;
  List.iter (fun o -> if not (Hashtbl.mem grouped o.Ir.id) then ignore (clone o)) (Ir.outputs p);
  (* A fold claimed by reduction planning but consumed nowhere live
     (every consumer was itself packed away) leaves a dead reduced
     chain and possibly dead packed inputs: prune, then keep only the
     groups whose packed input survived. *)
  Ir.prune q;
  let live = Hashtbl.create 16 in
  List.iter
    (fun n -> match n.Ir.op with Ir.Input (_, nm) -> Hashtbl.replace live nm () | _ -> ())
    (Ir.inputs q);
  let in_groups = List.filter (fun g -> Hashtbl.mem live g.packed_input) !in_groups in
  (q, { base = vs; in_groups; out_groups = List.rev !out_groups })

let run p =
  let vs = p.Ir.vec_size in
  let rplans = plan_reductions p vs in
  let claimed = Hashtbl.create 16 in
  List.iter (fun rp -> Hashtbl.replace claimed rp.rroot.Ir.id ()) rplans;
  let oplans = plan_outputs p vs ~claimed in
  if rplans = [] && oplans = [] then (p, None)
  else begin
    let q, pk = build p ~vs rplans oplans in
    if pk.in_groups = [] && pk.out_groups = [] then (p, None) else (q, Some pk)
  end

(* ------------------------------------------------------------------ *)
(* Binding shim and output unpacking                                   *)
(* ------------------------------------------------------------------ *)

exception Missing_members of string list

let () =
  Eva_diag.Diag.register_classifier (function
    | Missing_members names ->
        Some
          (Eva_diag.Diag.make ~layer:Eva_diag.Diag.Execute ~code:Eva_diag.Diag.exec_missing_inputs
             (Printf.sprintf "missing input binding(s) for packed lanes: %s"
                (String.concat ", " (List.map (Printf.sprintf "%S") names))))
    | _ -> None)

let pack_bindings pk bindings =
  let base = pk.base in
  (* Callers who already bind the packed name (a client compiled
     against the vectorized program) keep their binding; otherwise the
     per-element member bindings are packed block by block, pad lanes
     zero. Partially-bound groups fail like any missing input. *)
  let synthesized =
    List.filter_map
      (fun g ->
        if List.mem_assoc g.packed_input bindings then None
        else begin
          let lookup m = List.assoc_opt m bindings in
          let present = Array.to_list g.members |> List.filter (fun m -> lookup m <> None) in
          if present = [] then None
          else begin
            let missing =
              Array.to_list g.members |> List.filter (fun m -> lookup m = None)
              |> List.sort_uniq compare
            in
            if missing <> [] then raise (Missing_members missing);
            let v = Array.make (g.in_span * base) 0.0 in
            Array.iteri
              (fun b m ->
                match lookup m with
                | Some (Reference.Vec mv) -> Array.blit (Reference.tile base mv) 0 v (b * base) base
                | Some (Reference.Scal s) -> Array.fill v (b * base) base s
                | None -> ())
              g.members;
            Some (g.packed_input, Reference.Vec v)
          end
        end)
      pk.in_groups
  in
  (* Re-tile remaining vector bindings at the original width: a
     non-dividing length zero-pads at [base] in the scalar program, and
     widening must see that padded value periodically — not a single
     zero-padded copy at [W]. Dividing lengths tile identically either
     way and pass through untouched. *)
  let packed_names = List.map (fun g -> g.packed_input) pk.in_groups in
  let retiled =
    List.map
      (fun (name, b) ->
        match b with
        | Reference.Vec v
          when (not (List.mem name packed_names))
               && (Array.length v = 0 || Array.length v > base || base mod Array.length v <> 0) ->
            (name, Reference.Vec (Reference.tile base v))
        | _ -> (name, b))
      bindings
  in
  synthesized @ retiled

let unpack_outputs pk outputs =
  List.concat_map
    (fun (name, v) ->
      match List.find_opt (fun g -> g.packed_output = name) pk.out_groups with
      | Some g ->
          Array.to_list
            (Array.mapi (fun b m -> (m, Array.sub v (b * pk.base) pk.base)) g.out_members)
      | None -> [ (name, if Array.length v > pk.base then Array.sub v 0 pk.base else v) ])
    outputs
