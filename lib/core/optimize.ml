(* Redirect every use of [old_n] to [new_n]. *)
let replace_all_uses old_n new_n =
  List.iter
    (fun child ->
      Array.iteri (fun i parent -> if parent == old_n then Ir.set_parm child i new_n) child.Ir.parms)
    old_n.Ir.uses

let cse p =
  let changed = ref false in
  let seen : (Ir.op * int * int list, Ir.node) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      match n.Ir.op with
      | Ir.Input _ | Ir.Output _ -> ()
      | _ ->
          let key = (n.Ir.op, n.Ir.decl_scale, List.map (fun m -> m.Ir.id) (Array.to_list n.Ir.parms)) in
          (match Hashtbl.find_opt seen key with
          | Some rep when rep != n ->
              replace_all_uses n rep;
              changed := true
          | Some _ -> ()
          | None -> Hashtbl.replace seen key n))
    (Ir.topological p);
  if !changed then Ir.prune p;
  !changed

(* A compile-time value during folding. *)
type cval = Scal of float | Vec of float array

let fold_constants ?max_fold_size p =
  let vs = p.Ir.vec_size in
  let limit = Option.value max_fold_size ~default:vs in
  let changed = ref false in
  let values : (int, cval) Hashtbl.t = Hashtbl.create 32 in
  let scales = (Analysis.sweep p).Analysis.scale in
  let as_vec = function
    | Vec v -> Reference.tile vs v
    | Scal s -> Array.make vs s
  in
  let zip f a b =
    match (a, b) with
    | Scal x, Scal y -> Scal (f x y)
    | a, b -> Vec (Array.map2 f (as_vec a) (as_vec b))
  in
  List.iter
    (fun n ->
      let parm_vals () =
        let vals = Array.map (fun m -> Hashtbl.find_opt values m.Ir.id) n.Ir.parms in
        if Array.for_all Option.is_some vals then Some (Array.map Option.get vals) else None
      in
      let computed =
        match n.Ir.op with
        | Ir.Constant (Ir.Const_scalar s) -> Some (Scal s)
        | Ir.Constant (Ir.Const_vector v) -> Some (Vec v)
        | Ir.Input _ | Ir.Output _ | Ir.Relinearize | Ir.Mod_switch | Ir.Rescale _ -> None
        | _ -> (
            match parm_vals () with
            | None -> None
            | Some vals -> (
                match (n.Ir.op, Array.to_list vals) with
                | Ir.Negate, [ Scal x ] -> Some (Scal (-.x))
                | Ir.Negate, [ v ] -> Some (Vec (Array.map (fun x -> -.x) (as_vec v)))
                | Ir.Add, [ a; b ] -> Some (zip ( +. ) a b)
                | Ir.Sub, [ a; b ] -> Some (zip ( -. ) a b)
                | Ir.Multiply, [ a; b ] -> Some (zip ( *. ) a b)
                | Ir.Rotate_left _, [ Scal x ] | Ir.Rotate_right _, [ Scal x ] -> Some (Scal x)
                | Ir.Rotate_left k, [ v ] ->
                    let a = as_vec v in
                    Some (Vec (Array.init vs (fun i -> a.((((i + k) mod vs) + vs) mod vs))))
                | Ir.Rotate_right k, [ v ] ->
                    let a = as_vec v in
                    Some (Vec (Array.init vs (fun i -> a.((((i - k) mod vs) + vs) mod vs))))
                | _ -> None))
      in
      match computed with
      | None -> ()
      | Some value ->
          Hashtbl.replace values n.Ir.id value;
          (* Rewrite instructions (not pre-existing constants) whose value
             is now known, if it fits the size budget. *)
          if Ir.is_instruction n && n.Ir.uses <> [] then begin
            let scale = scales.(n.Ir.id) in
            let const =
              match value with
              | Scal s -> Some (Ir.Constant (Ir.Const_scalar s))
              | Vec v when Array.length v <= limit -> Some (Ir.Constant (Ir.Const_vector v))
              | Vec _ -> None
            in
            match const with
            | None -> ()
            | Some op ->
                let c = Ir.add_node ~decl_scale:scale p op [] in
                Hashtbl.replace values c.Ir.id value;
                replace_all_uses n c;
                changed := true
          end)
    (Ir.topological p);
  if !changed then Ir.prune p;
  !changed

let is_zero_const n =
  match n.Ir.op with
  | Ir.Constant (Ir.Const_scalar 0.0) -> true
  | Ir.Constant (Ir.Const_vector v) -> Array.for_all (fun x -> x = 0.0) v
  | _ -> false

let is_unit_noop n =
  (* Multiplying by 1 at scale 0 changes neither value nor scale. *)
  n.Ir.decl_scale = 0
  &&
  match n.Ir.op with
  | Ir.Constant (Ir.Const_scalar 1.0) -> true
  | Ir.Constant (Ir.Const_vector v) -> Array.for_all (fun x -> x = 1.0) v
  | _ -> false

let strength_reduce p =
  let changed = ref false in
  let replace_with n m =
    replace_all_uses n m;
    changed := true
  in
  List.iter
    (fun n ->
      match n.Ir.op with
      | Ir.Rotate_left k when k mod p.Ir.vec_size = 0 -> replace_with n n.Ir.parms.(0)
      | Ir.Rotate_right k when k mod p.Ir.vec_size = 0 -> replace_with n n.Ir.parms.(0)
      | Ir.Negate when (match n.Ir.parms.(0).Ir.op with Ir.Negate -> true | _ -> false) ->
          replace_with n n.Ir.parms.(0).Ir.parms.(0)
      | Ir.Multiply when is_unit_noop n.Ir.parms.(1) -> replace_with n n.Ir.parms.(0)
      | Ir.Multiply when is_unit_noop n.Ir.parms.(0) -> replace_with n n.Ir.parms.(1)
      | Ir.Add when is_zero_const n.Ir.parms.(1) -> replace_with n n.Ir.parms.(0)
      | Ir.Add when is_zero_const n.Ir.parms.(0) -> replace_with n n.Ir.parms.(1)
      | Ir.Sub when is_zero_const n.Ir.parms.(1) -> replace_with n n.Ir.parms.(0)
      | Ir.Sub when n.Ir.parms.(0) == n.Ir.parms.(1) ->
          let z = Ir.add_node ~decl_scale:n.Ir.decl_scale p (Ir.Constant (Ir.Const_scalar 0.0)) [] in
          replace_with n z
      | _ -> ())
    (Ir.topological p);
  if !changed then Ir.prune p;
  !changed

let run p =
  Rewrite.until_quiescence
    [ (fun () -> cse p); (fun () -> fold_constants p); (fun () -> strength_reduce p) ]

type hoist_group = { hoist_source : Ir.node; hoist_rotations : Ir.node list }

(* RotateMany grouping: a scheduling annotation, not new IR surface (the
   .eva serialization is untouched). Every ciphertext rotation of one
   source shares that source's chain level by construction, so grouping
   by source node is grouping "same source, same level". Members are in
   ascending id order, so the head is the group's topologically first
   member — the leader both executors key the group on. *)
let rotation_groups p =
  let ty = (Analysis.sweep p).Analysis.ty in
  let by_src : (int, Ir.node list) Hashtbl.t = Hashtbl.create 16 in
  let srcs = ref [] in
  List.iter
    (fun n ->
      match n.Ir.op with
      | (Ir.Rotate_left _ | Ir.Rotate_right _) when ty.(n.Ir.id) = Ir.Cipher ->
          let s = n.Ir.parms.(0) in
          (match Hashtbl.find_opt by_src s.Ir.id with
          | None ->
              srcs := s :: !srcs;
              Hashtbl.replace by_src s.Ir.id [ n ]
          | Some ms -> Hashtbl.replace by_src s.Ir.id (n :: ms))
      | _ -> ())
    p.Ir.all_nodes;
  List.filter_map
    (fun s ->
      match Hashtbl.find by_src s.Ir.id with
      | [] | [ _ ] -> None (* a lone rotation hoists nothing *)
      | ms ->
          Some
            {
              hoist_source = s;
              hoist_rotations = List.sort (fun a b -> compare a.Ir.id b.Ir.id) ms;
            })
    (List.rev !srcs)
