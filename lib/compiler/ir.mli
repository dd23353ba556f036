(** Loop-nest intermediate representation for array-based out-of-core
    programs — the input language of the compiler pass (section 3.2).

    Programs are affine loop nests over named arrays, with the features the
    paper's benchmarks exercise:

    - symbolic loop bounds, optionally {e unknown} to the compiler (BUK,
      CGM: "unknown loop bounds ... reduce the compiler's ability to
      analyze the data accesses");
    - indirect references [a\[b\[i\]\]] (BUK, CGM), which can be prefetched
      but never released;
    - procedures called repeatedly with different parameter bindings
      (MGRID: "the loop bounds change dynamically on different calls to the
      same procedures");
    - {e opaque} subscript coefficients: strides held in runtime variables,
      invisible to dependence analysis (FFTPDE: "the access stride changes
      within a set of loops, making it seem as though the access is not
      dependent on the loop induction variable").

    Subscripts are linearized element indices: affine combinations of loop
    variables whose coefficients are constants, parameters (e.g. a row
    length [N]), or opaque runtime values. *)

(** {1 Symbolic bounds} *)

type bound = { bc : int; bt : (string * int) list }
(** [bc + sum (k * param)], in whatever unit the context requires. *)

val cst : int -> bound
val param : string -> bound
val scale : int -> bound -> bound
val add : bound -> bound -> bound
val add_const : bound -> int -> bound

type env = (string, int) Hashtbl.t
(** Values of parameters and loop variables by name.  Only cold paths
    (array sizing, tests) evaluate by name; compiled code reads the slot
    frame of {!Pir.frame}. *)

val env_of_list : (string * int) list -> env
val eval_bound : env -> bound -> int

(** {1 References} *)

type coef =
  | C_const of int   (** ordinary constant stride, in elements *)
  | C_param of string(** symbolic stride known to depend on the variable *)
  | C_opaque of string
      (** runtime stride the compiler cannot see: dependence analysis
          treats the term as absent (the FFTPDE pitfall) *)

type subscript = {
  sc : int;                    (** constant element offset *)
  sp : (string * int) list;    (** additive parameter offsets *)
  st : (string * coef) list;   (** loop-variable terms *)
}

type access =
  | Direct of subscript
  | Indirect of { via : string; every : int }
      (** data-dependent index through index array [via]; modelled as a
          uniformly random page of the target array, one access per [every]
          innermost iterations ([every] > 1 coarsens the simulation without
          changing the page-level behaviour) *)

type ref_ = {
  r_array : string;
  r_access : access;
  r_write : bool;
}

val direct :
  ?off:int -> ?param_off:(string * int) list -> string ->
  (string * coef) list -> write:bool -> ref_
val indirect : ?every:int -> string -> via:string -> write:bool -> ref_

val eval_subscript : env -> subscript -> int
(** Element index given runtime values; opaque coefficients are looked up
    like parameters. *)

val coef_visible : coef -> bool
(** False for [C_opaque]: dependence analysis must ignore the term. *)

(** {1 Statements and programs} *)

type body = {
  refs : ref_ list;
  work_ns_per_iter : int;  (** compute cost of one innermost iteration *)
}

type stmt =
  | S_loop of loop
  | S_seq of stmt list
  | S_body of body
  | S_call of string * (string * bound) list
      (** call a procedure with parameter bindings evaluated in the caller's
          environment *)

and loop = {
  l_var : string;
  l_lo : bound;
  l_hi : bound;  (** exclusive *)
  l_known : bool;
      (** are the bounds known to the compiler?  When false, the analysis
          must assume the trip count is large (section 2.4) *)
  l_body : stmt;
}

val loop : ?known:bool -> var:string -> lo:bound -> hi:bound -> stmt -> stmt

type array_decl = {
  a_name : string;
  a_elem_bytes : int;
  a_size_elems : bound;
  a_on_swap : bool;  (** initial contents on backing store (input data) *)
}

type proc = { p_name : string; p_body : stmt }

type program = {
  prog_name : string;
  arrays : array_decl list;
  (* Parameter assumptions available to the compiler; [None] means the
     compiler knows nothing and must be conservative. *)
  assumptions : (string * int option) list;
  procs : proc list;
  main : stmt;
}

val array_decl :
  ?elem_bytes:int -> ?on_swap:bool -> string -> size:bound -> array_decl

val find_array : program -> string -> array_decl
val find_proc : program -> string -> proc

val array_pages : program -> env -> page_bytes:int -> string -> int
(** Size of an array in pages under runtime parameter values. *)

val validate : program -> (string list, string) result
(** Static sanity checks: referenced arrays/procedures exist, loop variables
    are bound by enclosing loops, indirect index arrays exist, and every
    other name read — in loop bounds, parameter offsets, [C_param] and
    [C_opaque] coefficients, call bindings and array sizes — is an
    enclosing loop variable, a procedure formal bound at every call site of
    that procedure, or a declared parameter ([assumptions]).  [Ok] carries
    the program's inputs: the declared parameters a run must supply, being
    read outside the scope of any loop variable or formal of the same name
    (array sizes included), sorted. *)

val pp_program : Format.formatter -> program -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_subscript : Format.formatter -> subscript -> unit
val pp_bound : Format.formatter -> bound -> unit
