exception Analysis_error of string

let () =
  Eva_diag.Diag.register_classifier (function
    | Analysis_error m ->
        Some (Eva_diag.Diag.make ~layer:Eva_diag.Diag.Validate ~code:Eva_diag.Diag.validate_structure m)
    | _ -> None)

let fail fmt = Format.kasprintf (fun s -> raise (Analysis_error s)) fmt

type chain = int option list

type sweep = {
  order : Ir.node list;
  ty : Ir.value_type array;
  scale : int array;
  rchain : chain array;
  polys : int array;
  steps : int list;
  chain_error : string option;
}

let scale_formula ~is_cipher ~get n =
  match n.Ir.op with
  | Ir.Input _ | Ir.Constant _ -> n.Ir.decl_scale
  | Ir.Negate | Ir.Rotate_left _ | Ir.Rotate_right _ | Ir.Relinearize | Ir.Mod_switch | Ir.Output _ ->
      get n.Ir.parms.(0)
  | Ir.Rescale k -> get n.Ir.parms.(0) - k
  | Ir.Multiply -> get n.Ir.parms.(0) + get n.Ir.parms.(1)
  | Ir.Add | Ir.Sub ->
      let a = n.Ir.parms.(0) and b = n.Ir.parms.(1) in
      if is_cipher a then get a else if is_cipher b then get b else max (get a) (get b)

(* Chains are held newest entry first, so RESCALE and MODSWITCH extend
   them in O(1) and operands sharing a chain share its cells. A merge
   returns its first operand unless a MODSWITCH slot ([None]) of it is
   matched by a RESCALE of the other, so conforming operands allocate
   nothing. *)
let merge_chains n a b =
  if a == b then a
  else begin
    let where () = Printf.sprintf "%s node %d" (Ir.op_name n.Ir.op) n.Ir.id in
    let la = List.length a and lb = List.length b in
    if la <> lb then fail "%s: rescale chains have different lengths (%d vs %d)" (where ()) la lb;
    let rec go a b =
      match (a, b) with
      | x :: ta, y :: tb ->
          let t = go ta tb in
          let h =
            match (x, y) with
            | Some i, Some j -> if i <> j then fail "%s: rescale chains disagree" (where ()) else x
            | None, Some _ -> y
            | _, None -> x
          in
          if h == x && t == ta then a else h :: t
      | _ -> a
    in
    go a b
  end

(* The one forward pass behind every table below. Per-node state lives
   in arrays indexed by node id, which is sound because every id is below
   [next_id]. A non-conforming chain does not stop the pass: the first one
   (in topological order) is recorded and the node continues with an
   empty chain. *)
let sweep p =
  let order = Ir.topological p in
  let size = p.Ir.next_id in
  let ty = Array.make size Ir.Scalar and scale = Array.make size 0 in
  let rchain = Array.make size [] and polys = Array.make size 0 in
  let steps = ref [] and chain_error = ref None in
  let is_cipher n = ty.(n.Ir.id) = Ir.Cipher in
  let get n = scale.(n.Ir.id) in
  let chain n = rchain.(n.Ir.id) and np n = polys.(n.Ir.id) in
  let vs = p.Ir.vec_size in
  let norm k = ((k mod vs) + vs) mod vs in
  List.iter
    (fun n ->
      let id = n.Ir.id and parms = n.Ir.parms in
      let t =
        match n.Ir.op with
        | Ir.Input (t, _) -> t
        | Ir.Constant (Ir.Const_vector _) -> Ir.Vector
        | Ir.Constant (Ir.Const_scalar _) -> Ir.Scalar
        | _ ->
            Array.fold_left
              (fun acc m ->
                match (acc, ty.(m.Ir.id)) with
                | Ir.Cipher, _ | _, Ir.Cipher -> Ir.Cipher
                | Ir.Vector, _ | _, Ir.Vector -> Ir.Vector
                | Ir.Scalar, Ir.Scalar -> Ir.Scalar)
              Ir.Scalar parms
      in
      ty.(id) <- t;
      scale.(id) <- scale_formula ~is_cipher ~get n;
      if t = Ir.Cipher then begin
        (rchain.(id) <-
           try
             match n.Ir.op with
             | Ir.Input _ | Ir.Constant _ -> []
             | Ir.Rescale k -> Some k :: chain parms.(0)
             | Ir.Mod_switch -> None :: chain parms.(0)
             | Ir.Add | Ir.Sub | Ir.Multiply -> begin
                 match (is_cipher parms.(0), is_cipher parms.(1)) with
                 | true, false -> chain parms.(0)
                 | false, true -> chain parms.(1)
                 | _ -> merge_chains n (chain parms.(0)) (chain parms.(1))
               end
             | Ir.Negate | Ir.Rotate_left _ | Ir.Rotate_right _ | Ir.Relinearize | Ir.Output _ ->
                 chain parms.(0)
           with Analysis_error m ->
             if !chain_error = None then chain_error := Some m;
             []);
        polys.(id) <-
          (match n.Ir.op with
          | Ir.Input _ | Ir.Relinearize -> 2
          | Ir.Multiply when is_cipher parms.(0) && is_cipher parms.(1) -> np parms.(0) + np parms.(1) - 1
          | _ -> Array.fold_left (fun acc m -> max acc (np m)) 0 parms);
        match n.Ir.op with
        | Ir.Rotate_left k -> steps := norm k :: !steps
        | Ir.Rotate_right k -> steps := -norm k :: !steps
        | _ -> ()
      end)
    order;
  (* Left steps are positive, right steps negative. A right step cannot be
     folded to [vec_size - k]: the ciphertext slot count may exceed
     vec_size (tiled inputs), and only the executor knows it. *)
  let steps = List.filter (fun k -> k <> 0) (List.sort_uniq compare !steps) in
  { order; ty; scale; rchain; polys; steps; chain_error = !chain_error }

(* The public tables are views of one sweep, filled in topological order
   so that their iteration order is the one callers have always seen. *)
let table s ?(keep = fun _ -> true) value =
  let tbl = Hashtbl.create 64 in
  List.iter (fun n -> if keep n then Hashtbl.replace tbl n.Ir.id (value n.Ir.id)) s.order;
  tbl

let types p =
  let s = sweep p in
  table s (Array.get s.ty)

let scales p =
  let s = sweep p in
  table s (Array.get s.scale)

let chains p =
  let s = sweep p in
  Option.iter (fun m -> raise (Analysis_error m)) s.chain_error;
  table s ~keep:(fun n -> s.ty.(n.Ir.id) = Ir.Cipher) (fun id -> List.rev s.rchain.(id))

let levels p =
  let c = chains p in
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter (fun id ch -> Hashtbl.replace tbl id (List.length ch)) c;
  tbl

let num_polys p =
  let s = sweep p in
  table s (Array.get s.polys)

let rotation_steps p = (sweep p).steps

let rlevels p =
  let s = sweep p in
  let is_cipher n = s.ty.(n.Ir.id) = Ir.Cipher in
  let rl = Array.make p.Ir.next_id 0 in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if is_cipher n then begin
        let self = match n.Ir.op with Ir.Rescale _ | Ir.Mod_switch -> 1 | _ -> 0 in
        let child_levels = List.filter_map (fun c -> if is_cipher c then Some rl.(c.Ir.id) else None) n.Ir.uses in
        let below =
          match child_levels with
          | [] -> 0
          | v :: rest ->
              List.iter
                (fun w -> if w <> v then fail "node %d: children have non-conforming transpose levels (%d vs %d)" n.Ir.id v w)
                rest;
              v
        in
        rl.(n.Ir.id) <- self + below;
        Hashtbl.replace tbl n.Ir.id (self + below)
      end)
    (List.rev s.order);
  tbl

let multiplicative_depth p =
  let s = sweep p in
  let depths = Array.make p.Ir.next_id 0 in
  List.fold_left
    (fun depth n ->
      let base = Array.fold_left (fun acc parent -> max acc depths.(parent.Ir.id)) 0 n.Ir.parms in
      let d =
        match n.Ir.op with Ir.Multiply when s.ty.(n.Ir.id) = Ir.Cipher -> base + 1 | _ -> base
      in
      depths.(n.Ir.id) <- d;
      max depth d)
    0 s.order
