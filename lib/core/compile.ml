type compiled = {
  program : Ir.program;
  params : Params.t;
  policy : Passes.policy;
  s_f : int;
  lanes : int;
  packing : Vectorize.packing option;
}

(* Validation and parameter selection read one sweep of the program. *)
let validate_and_select ~s_f ?lanes program =
  let sweep = Validate.check_transformed_sweep ~s_f program in
  Option.iter (fun lanes -> Validate.check_batched ~lanes program) lanes;
  Params.select_sweep ~s_f sweep program

let batch c ~lanes =
  if lanes = 1 then c
  else begin
    let program = Passes.batch ~lanes c.program in
    let params = validate_and_select ~s_f:c.s_f ~lanes:(lanes * c.lanes) program in
    { c with program; params; lanes = lanes * c.lanes }
  end

(* Rotation steps a compiled program needs, normalized to non-negative
   slot-space offsets (left rotations; [Params] reports right steps as
   negative). Batched variants live at a wider vec_size, so their steps
   must NOT be re-normalized modulo the base program's width. *)
let slot_rotations c =
  let vs = c.program.Ir.vec_size in
  List.sort_uniq compare
    (List.filter (fun k -> k <> 0)
       (List.map (fun k -> ((k mod vs) + vs) mod vs) c.params.Params.rotations))

let batch_rotations c ~max_lanes =
  let rec go acc lanes =
    if lanes > max_lanes then acc else go (slot_rotations (batch c ~lanes) @ acc) (lanes * 2)
  in
  List.sort_uniq compare (go [] 2)

let run ?(s_f = Passes.default_s_f) ?waterline ?(policy = Passes.Eva) ?(eager_relin = false)
    ?(optimize = false) ?(vectorize = true) ?batch:(lanes = 1) input =
  Validate.check_input_program input;
  let program = Ir.copy input in
  if optimize then Optimize.run program;
  let program, packing =
    if vectorize then Passes.vectorize program else (program, None)
  in
  (match packing with Some pk -> Validate.check_packing pk program | None -> ());
  Passes.transform ~s_f ?waterline ~policy ~eager_relin program;
  let params = validate_and_select ~s_f program in
  batch { program; params; policy; s_f; lanes = 1; packing } ~lanes

let run_timed ?s_f ?waterline ?policy ?eager_relin ?optimize ?vectorize ?batch input =
  let t0 = Unix.gettimeofday () in
  let c = run ?s_f ?waterline ?policy ?eager_relin ?optimize ?vectorize ?batch input in
  (c, Unix.gettimeofday () -. t0)

(* Scatter a vectorized program's outputs back to the source program's
   names (and trim to the original width); the identity for programs
   the pass left alone. *)
let unpack_outputs c outputs =
  match c.packing with None -> outputs | Some pk -> Vectorize.unpack_outputs pk outputs
