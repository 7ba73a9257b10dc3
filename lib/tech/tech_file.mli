(** Loading technology parameters from a simple text format:

    {v
    # comment
    name my_library
    fa_sum_delay 0.45
    fa_carry_delay 0.32
    v}

    The keys are [name] and the [key]s of {!Tech.params}.  Omitted keys
    inherit from [base] (default {!Tech.lcb_like}). *)

exception Parse_error of string

(** @raise Parse_error on unknown keys, malformed lines, bad numbers, a
    numeric value that is negative, NaN or infinite, or a
    [counter_fusion] outside (0, 1]. *)
val of_string : ?base:Tech.t -> string -> Tech.t

(** @raise Parse_error as {!of_string}; @raise Sys_error on I/O failure. *)
val of_file : ?base:Tech.t -> string -> Tech.t

(** Like {!of_string}, with format errors as typed [DP-TECH001]
    diagnostics. *)
val of_string_res : ?base:Tech.t -> string -> (Tech.t, Dp_diag.Diag.t) result

(** Like {!of_file}; I/O failures become [DP-TECH002] diagnostics. *)
val of_file_res : ?base:Tech.t -> string -> (Tech.t, Dp_diag.Diag.t) result

(** Round-trippable rendering of a technology: [name], then every
    {!Tech.params} entry in order. *)
val to_string : Tech.t -> string
