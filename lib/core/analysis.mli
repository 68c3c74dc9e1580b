(** Forward/backward data-flow analyses over EVA programs.

    These implement the graph traversal framework of the paper (Section
    6.1): a forward pass visits each node after all its parents, a
    backward pass after all its children. One forward {!sweep} computes
    every forward analysis at once, with per-node state in arrays indexed
    by node id (every id is below [next_id]); the per-analysis tables
    below are views of it. *)

exception Analysis_error of string

(** A rescale chain entry: [Some k] for RESCALE by 2^k, [None] for
    MODSWITCH (the paper's infinity). *)
type chain = int option list

(** The result of one forward sweep. Arrays are indexed by node id; an
    id that is not a node of the program holds a meaningless default. *)
type sweep = private {
  order : Ir.node list;  (** parents-before-children ({!Ir.topological}) *)
  ty : Ir.value_type array;  (** as {!types} *)
  scale : int array;  (** as {!scales} *)
  rchain : chain array;
      (** as {!chains} but newest entry first (RESCALE/MODSWITCH cons onto
          their operand's chain); [[]] on plain nodes *)
  polys : int array;  (** as {!num_polys} *)
  steps : int list;  (** as {!rotation_steps} *)
  chain_error : string option;
      (** the first non-conforming chain in topological order, which
          {!chains} raises; the sweep itself does not raise *)
}

(** [sweep p] computes type, scale, rescale chain, polynomial count and
    cipher rotation steps in one forward pass. The compiler driver runs it
    once per compiled program and shares it between {!Validate} and
    {!Params}. *)
val sweep : Ir.program -> sweep

(** [types p] infers Cipher/Vector/Scalar for every node. A node is
    Cipher iff any parameter is Cipher (or it is a Cipher input). *)
val types : Ir.program -> (int, Ir.value_type) Hashtbl.t

(** [scales p] computes the log2 scale of every node, mirroring CKKS
    semantics: MULTIPLY adds scales, RESCALE subtracts its operand, and a
    plaintext operand of ADD/SUB adopts the cipher operand's scale (the
    executor encodes it on demand at that scale). *)
val scales : Ir.program -> (int, int) Hashtbl.t

(** One step of the scale transfer function, shared with passes that keep
    their own incremental scale state. *)
val scale_formula : is_cipher:(Ir.node -> bool) -> get:(Ir.node -> int) -> Ir.node -> int

(** [chains p] computes the conforming rescale chain of every Cipher node.
    Raises {!Analysis_error} when some node's chains do not conform, or
    when ADD/SUB/MULTIPLY cipher operands have unequal chains (Constraint
    1 of the paper). *)
val chains : Ir.program -> (int, chain) Hashtbl.t

(** Level = conforming chain length; derived from {!chains}. *)
val levels : Ir.program -> (int, int) Hashtbl.t

(** [rlevels p] is the conforming chain length in the transpose graph:
    how many RESCALE/MODSWITCH nodes lie below each node on every path to
    an output. Raises {!Analysis_error} on non-conforming transpose
    chains. Used by the eager modswitch pass. *)
val rlevels : Ir.program -> (int, int) Hashtbl.t

(** Ciphertext polynomial counts per node (fresh = 2, MULTIPLY of ciphers
    = parms' sum - 1, RELINEARIZE = 2). Plain nodes map to 0. *)
val num_polys : Ir.program -> (int, int) Hashtbl.t

(** Rotation steps used on Cipher values (left-normalized, deduplicated,
    nonzero). Plaintext rotations need no keys and are excluded. *)
val rotation_steps : Ir.program -> int list

(** Multiplicative depth of the program (maximum number of MULTIPLY nodes
    with at least one Cipher operand on any root-to-output path). *)
val multiplicative_depth : Ir.program -> int
