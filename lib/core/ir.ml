type value_type = Cipher | Vector | Scalar

type constant_value = Const_vector of float array | Const_scalar of float

type op =
  | Constant of constant_value
  | Input of value_type * string  (* runtime binding name *)
  | Negate
  | Add
  | Sub
  | Multiply
  | Rotate_left of int
  | Rotate_right of int
  | Relinearize
  | Mod_switch
  | Rescale of int
  | Output of string

type node = {
  id : int;
  mutable op : op;
  mutable parms : node array;
  mutable uses : node list;
  mutable decl_scale : int;
}

type program = {
  prog_name : string;
  vec_size : int;
  mutable next_id : int;
  mutable all_nodes : node list;
}

let create_program ?(name = "program") ~vec_size () =
  if vec_size < 1 || vec_size land (vec_size - 1) <> 0 then
    invalid_arg "Ir.create_program: vec_size must be a power of two";
  { prog_name = name; vec_size; next_id = 0; all_nodes = [] }

let add_node ?(decl_scale = 0) p op parms =
  let n = { id = p.next_id; op; parms = Array.of_list parms; uses = []; decl_scale } in
  p.next_id <- p.next_id + 1;
  List.iter (fun parent -> parent.uses <- n :: parent.uses) parms;
  p.all_nodes <- n :: p.all_nodes;
  n

let remove_use parent child = parent.uses <- List.filter (fun u -> u != child) parent.uses

let remove_leaf p n =
  if n.uses <> [] then invalid_arg "Ir.remove_leaf: node has uses";
  Array.iter (fun parent -> remove_use parent n) n.parms;
  n.parms <- [||];
  p.all_nodes <- List.filter (fun m -> m != n) p.all_nodes

(* The same parent may appear in several parameter slots; drop exactly one
   use edge. *)
let drop_one_use parent child =
  let dropped = ref false in
  let rec go = function
    | [] -> []
    | u :: rest when (not !dropped) && u == child ->
        dropped := true;
        rest
    | u :: rest -> u :: go rest
  in
  parent.uses <- go parent.uses

let set_parm n i m =
  let old = n.parms.(i) in
  if old != m then begin
    drop_one_use old n;
    n.parms.(i) <- m;
    m.uses <- n :: m.uses
  end

let insert_between ?(decl_scale = 0) ?(child_filter = fun _ -> true) p n op extra_parms =
  let old_uses = List.filter child_filter n.uses in
  let m = add_node ~decl_scale p op (n :: extra_parms) in
  List.iter
    (fun child ->
      if child != m then
        Array.iteri (fun i parent -> if parent == n then set_parm child i m) child.parms)
    old_uses;
  m

let is_instruction n = match n.op with Constant _ | Input _ -> false | _ -> true
let is_fhe_specific = function Relinearize | Mod_switch | Rescale _ -> true | _ -> false

let outputs p = List.rev (List.filter (fun n -> match n.op with Output _ -> true | _ -> false) p.all_nodes)
let inputs p = List.rev (List.filter (fun n -> match n.op with Input _ -> true | _ -> false) p.all_nodes)
let constants p = List.rev (List.filter (fun n -> match n.op with Constant _ -> true | _ -> false) p.all_nodes)

let prune p =
  let live = Array.make p.next_id false in
  let rec mark n =
    if not live.(n.id) then begin
      live.(n.id) <- true;
      Array.iter mark n.parms
    end
  in
  List.iter mark (outputs p);
  let keep, drop = List.partition (fun n -> live.(n.id)) p.all_nodes in
  List.iter (fun dead -> Array.iter (fun parent -> remove_use parent dead) dead.parms) drop;
  p.all_nodes <- keep

let copy ?vec_size ?(map_op = fun op -> op) p =
  let vec_size =
    match vec_size with
    | None -> p.vec_size
    | Some vs ->
        if vs < 1 || vs land (vs - 1) <> 0 then
          invalid_arg "Ir.copy: vec_size must be a power of two";
        vs
  in
  let q = { p with vec_size; all_nodes = []; next_id = 0 } in
  let map = Array.make p.next_id None in
  let rec clone n =
    match map.(n.id) with
    | Some m -> m
    | None ->
        let parms = Array.to_list (Array.map clone n.parms) in
        let m = add_node ~decl_scale:n.decl_scale q (map_op n.op) parms in
        map.(n.id) <- Some m;
        m
  in
  List.iter (fun n -> ignore (clone n)) (List.rev p.all_nodes);
  q

(* Kahn's algorithm over arrays indexed by node id (every id is below
   [next_id]), with a binary min-heap of ready ids, so topological order
   is deterministic (smallest ready id first). Determinism makes
   serialized output canonical: a parsed program re-serializes to the
   same text. *)
let topological p =
  match p.all_nodes with
  | [] -> []
  | any :: _ ->
      let node = Array.make p.next_id any and indeg = Array.make p.next_id 0 in
      let heap = Array.make (List.length p.all_nodes) 0 and size = ref 0 in
      let push id =
        let i = ref !size in
        incr size;
        while !i > 0 && heap.((!i - 1) / 2) > id do
          heap.(!i) <- heap.((!i - 1) / 2);
          i := (!i - 1) / 2
        done;
        heap.(!i) <- id
      in
      let pop () =
        let top = heap.(0) in
        decr size;
        let last = heap.(!size) and i = ref 0 and sifting = ref true in
        while !sifting do
          let l = (2 * !i) + 1 in
          let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
          if c < !size && heap.(c) < last then begin
            heap.(!i) <- heap.(c);
            i := c
          end
          else sifting := false
        done;
        heap.(!i) <- last;
        top
      in
      List.iter
        (fun n ->
          node.(n.id) <- n;
          let d = Array.length n.parms in
          indeg.(n.id) <- d;
          if d = 0 then push n.id)
        p.all_nodes;
      let order = Array.make (Array.length heap) any and emitted = ref 0 in
      while !size > 0 do
        let n = node.(pop ()) in
        order.(!emitted) <- n;
        incr emitted;
        List.iter
          (fun u ->
            let d = indeg.(u.id) - 1 in
            indeg.(u.id) <- d;
            if d = 0 then push u.id)
          n.uses
      done;
      if !emitted <> Array.length order then failwith "Ir.topological: cycle detected";
      let rec to_list i acc = if i < 0 then acc else to_list (i - 1) (order.(i) :: acc) in
      to_list (!emitted - 1) []

let reverse_topological p = List.rev (topological p)

let node_count p = List.length p.all_nodes

let value_type_name = function Cipher -> "cipher" | Vector -> "vector" | Scalar -> "scalar"

let op_name = function
  | Constant _ -> "constant"
  | Input _ -> "input"
  | Negate -> "negate"
  | Add -> "add"
  | Sub -> "sub"
  | Multiply -> "multiply"
  | Rotate_left _ -> "rotate_left"
  | Rotate_right _ -> "rotate_right"
  | Relinearize -> "relinearize"
  | Mod_switch -> "modswitch"
  | Rescale _ -> "rescale"
  | Output _ -> "output"

let pp_op fmt op =
  match op with
  | Rotate_left k -> Format.fprintf fmt "rotate_left %d" k
  | Rotate_right k -> Format.fprintf fmt "rotate_right %d" k
  | Rescale k -> Format.fprintf fmt "rescale %d" k
  | Output name -> Format.fprintf fmt "output %S" name
  | Input (t, name) -> Format.fprintf fmt "input %s %S" (value_type_name t) name
  | other -> Format.pp_print_string fmt (op_name other)

