module Diag = Eva_diag.Diag

let pass_invariant what =
  Diag.error ~layer:Diag.Compile ~code:Diag.compile_pass_state "Passes: unregistered node in %s" what

let default_s_f = 60

let waterline p =
  List.fold_left
    (fun acc n -> match n.Ir.op with Ir.Input _ | Ir.Constant _ -> max acc n.Ir.decl_scale | _ -> acc)
    0 p.Ir.all_nodes

(* Per-node pass state in a growable array indexed by node id (ids are
   dense: every id is below the program's [next_id], and nodes a pass
   inserts get the next ones). Reading a node the pass never set is a
   compiler bug. *)
module State = struct
  type t = { mutable data : int array; what : string }

  let unset = min_int
  let create what size = { data = Array.make (max size 16) unset; what }

  let get t n =
    let id = n.Ir.id in
    if id < Array.length t.data && t.data.(id) <> unset then t.data.(id) else pass_invariant t.what

  let set t n v =
    let id = n.Ir.id in
    if id >= Array.length t.data then begin
      let bigger = Array.make (max (id + 1) (2 * Array.length t.data)) unset in
      Array.blit t.data 0 bigger 0 (Array.length t.data);
      t.data <- bigger
    end;
    t.data.(id) <- v
end

(* Incremental type tracking: inserted FHE-specific nodes inherit their
   parent's type and no rewrite changes an existing node's type, so one
   table seeded from a sweep stays valid across every pass of
   {!transform} as long as new nodes are registered. Only cipher-ness
   matters to the passes (1 = Cipher, 0 = plaintext). *)
let seed_types p =
  let s = Analysis.sweep p in
  let ty = State.create "type state" p.Ir.next_id in
  List.iter (fun n -> State.set ty n (if s.Analysis.ty.(n.Ir.id) = Ir.Cipher then 1 else 0)) s.Analysis.order;
  ty

let is_cipher ty n = State.get ty n = 1
let register ty n t = State.set ty n (if t = Ir.Cipher then 1 else 0)

let rescale_insertion ty p ~divisor_for =
  let is_cipher = is_cipher ty in
  let scale = State.create "scale state" p.Ir.next_id in
  let get_scale = State.get scale in
  Rewrite.forward p (fun n ->
      let s = Analysis.scale_formula ~is_cipher ~get:get_scale n in
      State.set scale n s;
      match n.Ir.op with
      | Ir.Multiply when is_cipher n -> begin
          match divisor_for ~result_scale:s ~parm_scales:(Array.map get_scale n.Ir.parms) with
          | None -> false
          | Some d ->
              let ns = Ir.insert_between p n (Ir.Rescale d) [] in
              register ty ns Ir.Cipher;
              State.set scale ns (s - d);
              true
        end
      | _ -> false)

let waterline_rescale_with ty ?(s_f = default_s_f) ?waterline:sw_opt p =
  let sw = match sw_opt with Some sw -> sw | None -> waterline p in
  rescale_insertion ty p ~divisor_for:(fun ~result_scale ~parm_scales:_ ->
      if result_scale - s_f >= sw then Some s_f else None)

let waterline_rescale ?s_f ?waterline p = waterline_rescale_with (seed_types p) ?s_f ?waterline p

let always_rescale p =
  rescale_insertion (seed_types p) p ~divisor_for:(fun ~result_scale:_ ~parm_scales ->
      Some (Array.fold_left min max_int parm_scales))

(* Levels here are rescale-chain lengths only; value conformance is left to
   the validator. *)
let lazy_modswitch_with ty p =
  let is_cipher = is_cipher ty in
  let level = State.create "level state" p.Ir.next_id in
  let get_level = State.get level and set_level = State.set level in
  Rewrite.forward p (fun n ->
      let level_of m = if is_cipher m then get_level m else 0 in
      let base_level =
        match n.Ir.op with
        | Ir.Input _ | Ir.Constant _ -> 0
        | Ir.Rescale _ | Ir.Mod_switch -> get_level n.Ir.parms.(0) + 1
        | _ ->
            Array.fold_left
              (fun acc parent -> if is_cipher parent then max acc (get_level parent) else acc)
              0 n.Ir.parms
      in
      let changed = ref false in
      (match n.Ir.op with
      | Ir.Add | Ir.Sub | Ir.Multiply ->
          let target =
            Array.fold_left
              (fun acc parent -> if is_cipher parent then max acc (level_of parent) else acc)
              0 n.Ir.parms
          in
          Array.iteri
            (fun i parent ->
              if is_cipher parent && level_of parent < target then begin
                let m = ref parent in
                for _ = 1 to target - level_of parent do
                  let ms = Ir.add_node p Ir.Mod_switch [ !m ] in
                  register ty ms Ir.Cipher;
                  set_level ms (get_level !m + 1);
                  m := ms
                done;
                Ir.set_parm n i !m;
                changed := true
              end)
            n.Ir.parms
      | _ -> ());
      set_level n base_level;
      !changed)

let lazy_modswitch p = lazy_modswitch_with (seed_types p) p

let eager_modswitch_with ty p =
  let is_cipher = is_cipher ty in
  let rl = State.create "rlevel state" p.Ir.next_id in
  let rlevel = State.get rl in
  let changed = ref false in
  (* Every (child, slot) edge from a cipher use of [n] to [n]. *)
  let iter_edges n uses f =
    List.iter
      (fun c -> if is_cipher c then Array.iteri (fun i parent -> if parent == n then f c i) c.Ir.parms)
      uses
  in
  let equalize_children n self =
    let uses = n.Ir.uses in
    let max_v = ref min_int and min_v = ref max_int in
    iter_edges n uses (fun c _ ->
        let v = rlevel c in
        max_v := max !max_v v;
        min_v := min !min_v v);
    if !max_v = min_int then self
    else begin
      let max_v = max 0 !max_v and min_v = !min_v in
      if min_v < max_v then begin
        (* One shared ladder: child at rlevel v attaches after
           (max_v - v) MODSWITCH nodes. *)
        let ladder = Array.make (max_v - min_v + 1) n in
        for d = 1 to max_v - min_v do
          let ms = Ir.add_node p Ir.Mod_switch [ ladder.(d - 1) ] in
          register ty ms Ir.Cipher;
          State.set rl ms (max_v - d + 1);
          ladder.(d) <- ms
        done;
        iter_edges n uses (fun c i ->
            let v = rlevel c in
            if v < max_v then Ir.set_parm c i ladder.(max_v - v));
        changed := true
      end;
      max_v + self
    end
  in
  List.iter
    (fun n ->
      if is_cipher n then begin
        let self = match n.Ir.op with Ir.Rescale _ | Ir.Mod_switch -> 1 | _ -> 0 in
        let v = match n.Ir.op with Ir.Output _ -> 0 | _ -> equalize_children n self in
        State.set rl n v
      end)
    (Ir.reverse_topological p);
  (* Pad shallow roots so all fresh ciphertexts share the modulus chain. *)
  let roots = List.filter (fun n -> match n.Ir.op with Ir.Input (Ir.Cipher, _) -> true | _ -> false) p.Ir.all_nodes in
  let max_root = List.fold_left (fun acc r -> max acc (rlevel r)) 0 roots in
  List.iter
    (fun r ->
      let deficit = max_root - rlevel r in
      if deficit > 0 then begin
        let m = ref r in
        for _ = 1 to deficit do
          let ms = Ir.insert_between p !m Ir.Mod_switch [] in
          register ty ms Ir.Cipher;
          m := ms
        done;
        changed := true
      end)
    roots;
  !changed

let eager_modswitch p = eager_modswitch_with (seed_types p) p

let match_scale_with ty p =
  let is_cipher = is_cipher ty in
  let scale = State.create "scale state" p.Ir.next_id in
  let get_scale = State.get scale and set_scale = State.set scale in
  Rewrite.forward p (fun n ->
      let changed = ref false in
      (match n.Ir.op with
      | Ir.Add | Ir.Sub ->
          let a = n.Ir.parms.(0) and b = n.Ir.parms.(1) in
          if is_cipher a && is_cipher b then begin
            let sa = get_scale a and sb = get_scale b in
            if sa <> sb then begin
              let lo_idx = if sa < sb then 0 else 1 in
              let lo = n.Ir.parms.(lo_idx) in
              let diff = abs (sa - sb) in
              let one = Ir.add_node ~decl_scale:diff p (Ir.Constant (Ir.Const_scalar 1.0)) [] in
              register ty one Ir.Scalar;
              set_scale one diff;
              let nt = Ir.add_node p Ir.Multiply [ lo; one ] in
              register ty nt Ir.Cipher;
              set_scale nt (get_scale lo + diff);
              Ir.set_parm n lo_idx nt;
              changed := true
            end
          end
      | _ -> ());
      set_scale n (Analysis.scale_formula ~is_cipher ~get:get_scale n);
      !changed)

let match_scale p = match_scale_with (seed_types p) p

let relinearize_with ty p =
  let is_cipher = is_cipher ty in
  Rewrite.forward p (fun n ->
      match n.Ir.op with
      | Ir.Multiply when is_cipher n.Ir.parms.(0) && is_cipher n.Ir.parms.(1) -> begin
          (* Idempotence: skip if already immediately relinearized. *)
          match n.Ir.uses with
          | [ { Ir.op = Ir.Relinearize; _ } ] -> false
          | _ ->
              let nl = Ir.insert_between p n Ir.Relinearize [] in
              register ty nl Ir.Cipher;
              true
        end
      | _ -> false)

let relinearize p = relinearize_with (seed_types p) p

(* LAZY-RELINEARIZE: the eager rule above keys one RELINEARIZE to every
   cipher x cipher MULTIPLY.  But relinearization commutes with the
   linear ops (ADD, SUB, NEGATE, RESCALE, MODSWITCH), so size-3
   ciphertexts may flow through whole reduction trees and pay a single
   key switch where a size-2 operand is actually demanded — MULTIPLY and
   ROTATE operands and OUTPUTs.  This is the demand-driven equivalent of
   sinking each multiply's relin to its dominance frontier and merging
   the relins that meet at a shared accumulator: a k-term dot product
   relinearizes once at the root instead of k times at the leaves.
   Because the pass runs after WATERLINE-RESCALE, the surviving relins
   also sit below the RESCALE nodes, i.e. the key switch runs at a
   smaller modulus than the eager placement would use.

   Forward size dataflow: Input -> 2, Relinearize -> 2, cipher x cipher
   Multiply -> ka + kb - 1, everything else -> max over cipher parents.
   Since multiply operands are themselves demanded down to size 2, sizes
   never exceed 3.  A node whose size exceeds 2 and has at least one
   demanding use gets one RELINEARIZE inserted between it and all its
   uses (except an already-inserted Relinearize), so additive chains
   downstream — a rotate-and-sum ladder, say — consume the size-2
   value and share the single key switch instead of re-demanding one
   per level.  Idempotent: after the rewire the size-3 node's only use
   is the Relinearize, so a second run finds no demanding use. *)
let lazy_relinearize_with ty p =
  let is_cipher = is_cipher ty in
  let sizes = State.create "size state" p.Ir.next_id in
  let size_of m = if not (is_cipher m) then 0 else State.get sizes m in
  let max_parent_size n =
    Array.fold_left (fun acc parent -> max acc (size_of parent)) 0 n.Ir.parms
  in
  let demands_size2 c =
    match c.Ir.op with
    | Ir.Multiply | Ir.Rotate_left _ | Ir.Rotate_right _ | Ir.Output _ -> true
    | _ -> false
  in
  Rewrite.forward p (fun n ->
      let k =
        if not (is_cipher n) then 0
        else
          match n.Ir.op with
          | Ir.Input _ -> 2
          | Ir.Relinearize -> 2
          | Ir.Multiply ->
              let a = n.Ir.parms.(0) and b = n.Ir.parms.(1) in
              if is_cipher a && is_cipher b then size_of a + size_of b - 1 else max_parent_size n
          | _ -> max_parent_size n
      in
      State.set sizes n k;
      if k > 2 && List.exists demands_size2 n.Ir.uses then begin
        let keep_raw c = match c.Ir.op with Ir.Relinearize -> true | _ -> false in
        let nl = Ir.insert_between ~child_filter:(fun c -> not (keep_raw c)) p n Ir.Relinearize [] in
        register ty nl Ir.Cipher;
        State.set sizes nl 2;
        true
      end
      else false)

let lazy_relinearize p = lazy_relinearize_with (seed_types p) p

(* SLOT-BATCH: widen a program so [lanes] independent requests share one
   ciphertext. Request [b] owns the strided slot set {i*lanes + b}; under
   that interleaved layout a per-request rotation by [k] is exactly a
   global rotation by [k*lanes] — no masks, no extra multiplies, no
   change to scales or to the rescale chain. Vector constants are
   stride-expanded so every lane sees the original constant. *)
let stride_expand ~lanes v =
  let len = Array.length v in
  let out = Array.make (len * lanes) 0.0 in
  for i = 0 to len - 1 do
    for b = 0 to lanes - 1 do
      out.((i * lanes) + b) <- v.(i)
    done
  done;
  out

let batch ~lanes p =
  if lanes < 1 || lanes land (lanes - 1) <> 0 then
    Diag.error ~layer:Diag.Compile ~code:Diag.compile_pass_state
      "Passes.batch: lanes must be a power of two (got %d)" lanes;
  if lanes = 1 then Ir.copy p
  else
    Ir.copy ~vec_size:(lanes * p.Ir.vec_size)
      ~map_op:(function
        | Ir.Rotate_left k -> Ir.Rotate_left (k * lanes)
        | Ir.Rotate_right k -> Ir.Rotate_right (k * lanes)
        | Ir.Constant (Ir.Const_vector v) -> Ir.Constant (Ir.Const_vector (stride_expand ~lanes v))
        | op -> op)
      p

(* Auto-vectorization lives in its own module (the lane walk, packing
   layout and binding shim are a subsystem); it is surfaced here because
   it is a compilation pass like the others. *)
let vectorize = Vectorize.run

type policy = Eva | Lazy_insertion

let transform ?(s_f = default_s_f) ?waterline ?(policy = Eva) ?(eager_relin = false) p =
  (* Dead subgraphs must not influence waterline or root padding. *)
  Ir.prune p;
  (* One sweep seeds the type state every pass shares. *)
  let ty = seed_types p in
  ignore (waterline_rescale_with ty ~s_f ?waterline p);
  (match policy with
  | Eva -> ignore (eager_modswitch_with ty p)
  | Lazy_insertion -> ignore (lazy_modswitch_with ty p));
  ignore (match_scale_with ty p);
  ignore (if eager_relin then relinearize_with ty p else lazy_relinearize_with ty p);
  Ir.prune p
