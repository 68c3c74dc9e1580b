(** Encryption-parameter and rotation-key selection (Section 6.2).

    The selected bit-size vector is reported in the paper's order —
    special prime first, then the output's conforming rescale chain, then
    the factors of the desired output magnitude — together with the SEAL
    chain order the {!Executor} feeds to {!Eva_ckks.Context.make}
    (bottom element first, last element dropped first). *)

type t = {
  log_n : int;  (** polynomial modulus degree, log2 *)
  bit_sizes : int list;  (** paper order: special, chain, output factors *)
  context_data_bits : int list;  (** chain order for {!Eva_ckks.Context} *)
  special_bits : int list;
  rotations : int list;  (** distinct left-rotation steps needing keys *)
  log_q : int;  (** total modulus bits, data + special *)
}

exception Selection_error of string

(** [select p ~vec_size] runs the parameter-selection pass on a
    transformed, validated program. [s_f] bounds rescale primes (log2).
    Degree selection doubles N until the 128-bit security bound admits
    [log_q] and the slot count fits [vec_size]. *)
val select : ?s_f:int -> Ir.program -> t

(** {!select} reading a sweep of the program already computed (by
    {!Validate.check_transformed_sweep}). *)
val select_sweep : ?s_f:int -> Analysis.sweep -> Ir.program -> t

val pp : Format.formatter -> t -> unit
