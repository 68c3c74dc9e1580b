type estimate = { abs_error : float; magnitude : float }

(* Error-model state per node: [err] is the standard deviation of the
   decoded slot values' error, [mag] a bound on |value|, [scale] the
   executor's (power-of-two-adjusted) scale. All errors live in the
   decoded-value domain, which makes multiplication composition exact:
   e(ab) = e(a)|b| + e(b)|a| + e(a)e(b). *)
type state = { err : float; mag : float; scale : float }

let sigma = 3.24 (* centered binomial with 21 coin pairs *)

let estimate ?(input_magnitude = 1.0) ~log_n compiled =
  let p = compiled.Compile.program in
  let n = Float.ldexp 1.0 log_n in
  (* Slot-domain magnification of one coefficient-domain unit: the
     canonical embedding spreads coefficient noise across slots with
     factor sqrt(N). *)
  let embed = Float.sqrt n in
  (* Encoding quantization: +-1/2 per coefficient. *)
  let enc_q = embed *. 0.5 /. Float.sqrt 3.0 in
  (* Fresh encryption: e_pk*u + e1*s + e0 has coefficient std about
     sigma * sqrt(4N/3). *)
  let fresh = embed *. sigma *. Float.sqrt (4.0 *. n /. 3.0) in
  (* Rescale rounding: +-1/2 per coefficient on every component c_j,
     each multiplied by s^j (ternary secret: factor sqrt(2N/3) per
     power).  A canonical 2-polynomial ciphertext gives the textbook
     1 + sqrt(2N/3); a size-3 ciphertext reaching a rescale under lazy
     relinearization adds the c2 term amplified by s^2. *)
  let s_pow = Float.sqrt (2.0 *. n /. 3.0) in
  let rescale_round_for k =
    let acc = ref 0.0 and pow = ref 1.0 in
    for _ = 1 to max 2 k do
      acc := !acc +. !pow;
      pow := !pow *. s_pow
    done;
    embed *. 0.5 *. !acc
  in
  let rescale_round = rescale_round_for 2 in
  (* Key switching after division by the ~2^60 special modulus. *)
  let keyswitch_round = 2.0 *. rescale_round in
  let sw = Analysis.sweep p in
  let is_cipher node = sw.Analysis.ty.(node.Ir.id) = Ir.Cipher in
  let polys node = sw.Analysis.polys.(node.Ir.id) in
  let tbl = Array.make p.Ir.next_id { err = 0.0; mag = 0.0; scale = 1.0 } in
  let get node = tbl.(node.Ir.id) in
  let const_magnitude = function
    | Ir.Const_scalar s -> Float.abs s
    | Ir.Const_vector v -> Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 v
  in
  let outputs = ref [] in
  List.iter
    (fun node ->
      let s =
        match node.Ir.op with
        | Ir.Input (Ir.Cipher, _) ->
            let scale = Float.ldexp 1.0 node.Ir.decl_scale in
            { err = (enc_q +. fresh) /. scale; mag = input_magnitude; scale }
        | Ir.Input _ -> { err = 0.0; mag = input_magnitude; scale = Float.ldexp 1.0 node.Ir.decl_scale }
        | Ir.Constant c ->
            { err = 0.0; mag = const_magnitude c; scale = Float.ldexp 1.0 node.Ir.decl_scale }
        | Ir.Negate | Ir.Rotate_left _ | Ir.Rotate_right _ ->
            let a = get node.Ir.parms.(0) in
            if is_cipher node && (match node.Ir.op with Ir.Negate -> false | _ -> true) then
              (* Rotation pays one key switch. *)
              { a with err = a.err +. (keyswitch_round /. a.scale) }
            else a
        | Ir.Relinearize ->
            let a = get node.Ir.parms.(0) in
            { a with err = a.err +. (keyswitch_round /. a.scale) }
        | Ir.Mod_switch -> get node.Ir.parms.(0)
        | Ir.Rescale k ->
            let a = get node.Ir.parms.(0) in
            let scale = a.scale /. Float.ldexp 1.0 k in
            { err = a.err +. (rescale_round_for (polys node) /. scale); mag = a.mag; scale }
        | Ir.Add | Ir.Sub ->
            let a = get node.Ir.parms.(0) and b = get node.Ir.parms.(1) in
            let scale = if is_cipher node.Ir.parms.(0) then a.scale else b.scale in
            (* A plaintext operand is encoded on demand: quantization at
               the target scale. *)
            let plain_q op = if is_cipher op then 0.0 else enc_q /. scale in
            {
              err = a.err +. b.err +. plain_q node.Ir.parms.(0) +. plain_q node.Ir.parms.(1);
              mag = a.mag +. b.mag;
              scale;
            }
        | Ir.Multiply ->
            let a = get node.Ir.parms.(0) and b = get node.Ir.parms.(1) in
            let plain_q op st = if is_cipher op then 0.0 else enc_q /. st.scale in
            let ea = a.err +. plain_q node.Ir.parms.(0) a in
            let eb = b.err +. plain_q node.Ir.parms.(1) b in
            { err = (ea *. b.mag) +. (eb *. a.mag) +. (ea *. eb); mag = a.mag *. b.mag; scale = a.scale *. b.scale }
        | Ir.Output name ->
            let a = get node.Ir.parms.(0) in
            outputs := (name, { abs_error = a.err; magnitude = a.mag }) :: !outputs;
            a
      in
      tbl.(node.Ir.id) <- s)
    sw.Analysis.order;
  List.rev !outputs

let check ?input_magnitude ~log_n ~tolerance compiled =
  List.filter (fun (_, e) -> e.abs_error > tolerance) (estimate ?input_magnitude ~log_n compiled)
