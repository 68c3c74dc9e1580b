(* Random program generators shared by the compiler and analysis
   property tests. *)

module B = Eva_core.Builder

(* A 12-instruction random DAG over two cipher inputs at different
   scales, plaintext constants, multiplies, rotations and negations.
   [right_rotations] lets each rotation go either way. *)
let random_program ?(right_rotations = false) seed =
  let st = Random.State.make [| seed |] in
  let b = B.create ~vec_size:16 () in
  let x = B.input b ~scale:30 "x" in
  let y = B.input b ~scale:25 "y" in
  let consts = [ B.const_scalar b ~scale:20 0.5; B.const_vector b ~scale:20 (Array.init 16 (fun i -> 0.1 *. float_of_int i)) ] in
  let pool = ref [ x; y ] in
  for _ = 1 to 12 do
    let pick lst = List.nth lst (Random.State.int st (List.length lst)) in
    let a = pick !pool in
    let e =
      match Random.State.int st 6 with
      | 0 -> B.add a (pick !pool)
      | 1 -> B.sub a (pick !pool)
      | 2 -> B.mul a (pick !pool)
      | 3 -> B.mul a (pick consts)
      | 4 ->
          let k = 1 + Random.State.int st 15 in
          if right_rotations && Random.State.bool st then B.rotate_right a k else B.rotate_left a k
      | _ -> B.neg a
    in
    pool := e :: !pool
  done;
  B.output b "out" ~scale:30 (List.hd !pool);
  B.program b
