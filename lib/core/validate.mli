(** Validation passes (Section 6.2): prove at compile time that no
    FHE-library runtime exception can fire.

    Four constraints from Section 4.2 are checked:
    1. equal coefficient moduli (conforming, equal rescale chains) for the
       cipher operands of ADD/SUB/MULTIPLY;
    2. equal scales for the cipher operands of ADD/SUB;
    3. every MULTIPLY operand has exactly 2 polynomials;
    4. every RESCALE divisor is at most 2^s_f.

    In addition the input-program well-formedness rules of Section 3 are
    enforced (arities, no Cipher constants, no FHE-specific instructions
    reachable in input programs, vector sizes).

    Violations raise [Eva_diag.Diag.Error] in the [Validate] layer with
    one stable code per constraint class (EVA-E201 arity, E202 scale,
    E203 polynomial count, E204 rescale bound, E205 structure), anchored
    to the offending IR node. *)

(** Check a frontend-produced input program (no FHE-specific ops). *)
val check_input_program : Ir.program -> unit

(** Check a transformed program against Constraints 1-4. All checks
    read one {!Analysis.sweep}; when several nodes break the same rule,
    the first in [all_nodes] order is reported, except a negative scale,
    which is reported at the lowest node id. *)
val check_transformed : ?s_f:int -> Ir.program -> unit

(** {!check_transformed}, returning the sweep the checks read so the
    compiler driver can hand it on to {!Params.select_sweep}. *)
val check_transformed_sweep : ?s_f:int -> Ir.program -> Analysis.sweep

(** Check a packed layout produced by {!Vectorize.run} against the
    program it describes: spans are powers of two fitting the widened
    [vec_size], member counts lie in [1, span], and every packed
    input/output names a real (correctly-typed) node. Violations raise
    EVA-E208. *)
val check_packing : Vectorize.packing -> Ir.program -> unit

(** Check the slot-batching lane invariants of a program produced by
    {!Passes.batch}: [vec_size] and every rotation step are multiples of
    [lanes], and vector constants tile without crossing lane boundaries
    (length lane-aligned or 1). Violations raise EVA-E207. *)
val check_batched : lanes:int -> Ir.program -> unit
