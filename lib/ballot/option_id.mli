(** Voting options (the paper's calligraphic [A], [B], [C] ...).

    An option is an element of the voting option domain [V]; we back it by a
    non-negative integer so the domain can be fixed by the subject or grown
    dynamically from node inputs. *)

type t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int : t -> int
val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val pp : t Fmt.t
(** Prints [A], [B], ... for the first eight options, [optN] beyond. *)

val to_string : t -> string

val of_string : string -> t option
(** The inverse of {!to_string} ([A] ... [H], [optN]); a non-negative
    decimal integer names the option with that id. *)

val list_to_string : t list -> string
(** Comma-separated {!to_string}s, e.g. ["A,A,B"]. *)

val list_of_string : string -> (t list, string) result
(** The inverse of {!list_to_string}; accepts ints as well, so ["A,A,B"]
    and ["0,0,1"] are the same list.  [Error] names the first entry that
    is not an option. *)
