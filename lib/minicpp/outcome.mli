(** The observable result of running a MiniC++ program — the unit of
    measurement for every experiment. *)

type hijack_via = Return_address | Vtable | Function_pointer

val via_name : hijack_via -> string

type status =
  | Exited of int
  | Arc_injection of { via : hijack_via; symbol : string; tainted : bool }
      (** control redirected to an existing text symbol (§3.6.2) *)
  | Code_injection of { via : hijack_via; target : int; tainted : bool }
      (** control transferred into a writable segment *)
  | Crashed of string
  | Stack_smashing_detected  (** StackGuard terminated the program *)
  | Defense_blocked of string
  | Timeout of { steps : int }  (** interpreter budget exhausted: DoS *)
  | Out_of_memory
  | Internal_error of string
      (** the interpreter reached a state its own invariants rule out; a
          simulator bug, never a verdict about the program *)
  | Recovered of { attempts : int; final_attempt : int; exit_code : int }
      (** the chaos supervisor retried past injected transient faults and
          the program then ran to completion; [final_attempt] is the
          1-based index of the attempt that produced the verdict *)

type t = {
  status : status;
  events : Pna_machine.Event.t list;
  output : string list;
  steps : int;
}

val pp_status : Format.formatter -> status -> unit

val status_key : status -> string
(** The status's stable key — its constructor without payload:
    ["exited"], ["canary"], ["arc-inj"] and so on. *)

val status_keys : string list
(** Every {!status_key}, one per constructor. *)

val key_of_rendered : string -> string option
(** The {!status_key} of a status rendered by {!pp_status}, read from
    the head it prints: [key_of_rendered (Fmt.str "%a" pp_status s) =
    Some (status_key s)]. [None] for a string no head matches. *)

val pp : Format.formatter -> t -> unit
val hijacked : t -> bool
val blocked : t -> bool
val exited_normally : t -> bool
