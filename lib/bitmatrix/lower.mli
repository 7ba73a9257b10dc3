(** Global bit-level lowering: expression → addend matrix (mod 2^W).

    This realizes the paper's extension of the Wallace scheme "to any
    arithmetic circuit which consists of additions/subtractions/
    multiplications globally": the whole expression becomes one addend
    matrix, not one matrix per operation.  Partial-product AND gates are
    structurally shared; monomial expansion folds squarer symmetries
    (x_i·x_i = x_i, and x_i·x_j + x_j·x_i = one addend at weight i+j+1);
    per-support multipliers are recoded into signed power-of-two digits
    ({!Csd} canonical form by default, plain {!Binary} as the ablation
    baseline); negative digits lower as complemented addends via
    −b·2^w = ~b·2^w − 2^w; and all constants are pre-summed into a single
    value contributing at most one constant-1 addend per column. *)

open Dp_netlist
open Dp_expr

type recoding = Csd | Binary

(** Every recoding, and the name the CLI, the wire protocol and the
    cache key use for it ([csd], [binary]). *)
val recodings : recoding list

val recoding_name : recoding -> string

type multiplier_style =
  | And_array  (** plain partial-product bits (the paper's setting) *)
  | Booth  (** radix-4 Booth rows for eligible products — see {!Booth} *)

(** Every multiplier style, and its name in the same three places
    ([and-array], [booth]). *)
val multiplier_styles : multiplier_style list

val multiplier_name : multiplier_style -> string

type config = { recoding : recoding; multiplier_style : multiplier_style }

(** CSD recoding, AND-array products. *)
val default_config : config

(** Declare one primary-input bus per expression variable, carrying the
    environment's arrival/probability profiles; buses already declared in
    the netlist are reused, so several expressions can share one netlist.
    Returns name ↦ nets.
    @raise Invalid_argument if an existing bus has a different width. *)
val declare_inputs :
  Netlist.t -> Env.t -> Ast.t -> (string * Netlist.net array) list

(** [lower netlist env expr ~width] declares the inputs and builds the
    addend matrix denoting [expr] mod 2^width.
    @raise Invalid_argument if [width] is outside [1, 62] or a variable is
    unbound. *)
val lower :
  ?config:config -> Netlist.t -> Env.t -> Ast.t -> width:int -> Matrix.t
