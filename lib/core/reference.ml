type binding = Vec of float array | Scal of float

exception Missing_input of string

let () =
  Eva_diag.Diag.register_classifier (function
    | Missing_input name ->
        Some
          (Eva_diag.Diag.make ~layer:Eva_diag.Diag.Execute ~code:Eva_diag.Diag.exec_missing_inputs
             (Printf.sprintf "missing input binding %S" name))
    | _ -> None)

let tile vec_size v =
  let len = Array.length v in
  if len = 0 || len > vec_size then
    Eva_diag.Diag.error ~layer:Eva_diag.Diag.Execute ~code:Eva_diag.Diag.exec_bad_operands
      "Reference: input size %d unusable at vec_size %d" len vec_size;
  if len = vec_size then Array.copy v
  else if vec_size mod len = 0 then Array.init vec_size (fun i -> v.(i mod len))
  else
    (* Non-dividing lengths zero-pad instead of tiling: the slots past
       [len] are defined to hold 0.0 (and are never returned on the wire
       — responses carry exactly the requested slots). A dividing length
       still tiles, so existing programs are unchanged. *)
    Array.init vec_size (fun i -> if i < len then v.(i) else 0.0)

let execute p bindings =
  let vs = p.Ir.vec_size in
  let values = Array.make p.Ir.next_id [||] in
  let get n = values.(n.Ir.id) in
  let outputs = ref [] in
  List.iter
    (fun n ->
      let v =
        match n.Ir.op with
        | Ir.Input (_, name) -> begin
            match List.assoc_opt name bindings with
            | Some (Vec v) -> tile vs v
            | Some (Scal s) -> Array.make vs s
            | None -> raise (Missing_input name)
          end
        | Ir.Constant (Ir.Const_vector v) -> tile vs v
        | Ir.Constant (Ir.Const_scalar s) -> Array.make vs s
        | Ir.Negate -> Array.map (fun x -> -.x) (get n.Ir.parms.(0))
        | Ir.Add -> Array.map2 ( +. ) (get n.Ir.parms.(0)) (get n.Ir.parms.(1))
        | Ir.Sub -> Array.map2 ( -. ) (get n.Ir.parms.(0)) (get n.Ir.parms.(1))
        | Ir.Multiply -> Array.map2 ( *. ) (get n.Ir.parms.(0)) (get n.Ir.parms.(1))
        | Ir.Rotate_left k ->
            let a = get n.Ir.parms.(0) in
            Array.init vs (fun i -> a.((((i + k) mod vs) + vs) mod vs))
        | Ir.Rotate_right k ->
            let a = get n.Ir.parms.(0) in
            Array.init vs (fun i -> a.((((i - k) mod vs) + vs) mod vs))
        | Ir.Relinearize | Ir.Mod_switch | Ir.Rescale _ -> get n.Ir.parms.(0)
        | Ir.Output name ->
            let v = get n.Ir.parms.(0) in
            outputs := (name, v) :: !outputs;
            v
      in
      values.(n.Ir.id) <- v)
    (Ir.topological p);
  List.rev !outputs
