(** The observable result of running a MiniC++ program.

    This is the unit of measurement for every experiment: attacks are
    judged successful/blocked/crashed by pattern-matching the status, the
    machine's event stream and the program output. *)

type hijack_via = Return_address | Vtable | Function_pointer

let via_name = function
  | Return_address -> "return address"
  | Vtable -> "vtable pointer"
  | Function_pointer -> "function pointer"

type status =
  | Exited of int  (** ran to completion *)
  | Arc_injection of { via : hijack_via; symbol : string; tainted : bool }
      (** control redirected to an existing text symbol (return-to-libc
          style, §3.6.2) *)
  | Code_injection of { via : hijack_via; target : int; tainted : bool }
      (** control transferred into a writable segment: injected code would
          run (§3.6.2) *)
  | Crashed of string  (** segfault / heap corruption / SIGFPE *)
  | Stack_smashing_detected  (** StackGuard terminated the program *)
  | Defense_blocked of string  (** shadow stack / bounds check / NX fired *)
  | Timeout of { steps : int }  (** interpreter budget exhausted: DoS *)
  | Out_of_memory
  | Internal_error of string
      (** the interpreter reached a state its own invariants rule out
          (e.g. a short-circuit operator surviving to strict evaluation);
          a simulator bug, never a verdict about the program *)
  | Recovered of { attempts : int; final_attempt : int; exit_code : int }
      (** the chaos supervisor retried past injected transient faults and
          the program then ran to completion; [attempts] is the total
          number of attempts made and [final_attempt] the 1-based index
          of the one that produced this verdict (equal unless a later
          policy adds non-sequential retries) *)

type t = {
  status : status;
  events : Pna_machine.Event.t list;
  output : string list;
  steps : int;  (** statements + expressions evaluated *)
}

let pp_status ppf = function
  | Exited c -> Fmt.pf ppf "exited(%d)" c
  | Arc_injection h ->
    Fmt.pf ppf "ARC-INJECTION via %s -> %s%s" (via_name h.via) h.symbol
      (if h.tainted then " [tainted]" else "")
  | Code_injection h ->
    Fmt.pf ppf "CODE-INJECTION via %s -> 0x%08x%s" (via_name h.via) h.target
      (if h.tainted then " [tainted]" else "")
  | Crashed msg -> Fmt.pf ppf "CRASH: %s" msg
  | Stack_smashing_detected -> Fmt.string ppf "*** stack smashing detected ***"
  | Defense_blocked d -> Fmt.pf ppf "BLOCKED by %s" d
  | Timeout t -> Fmt.pf ppf "TIMEOUT after %d steps" t.steps
  | Out_of_memory -> Fmt.string ppf "OUT OF MEMORY"
  | Internal_error msg -> Fmt.pf ppf "INTERNAL ERROR: %s" msg
  | Recovered r ->
    Fmt.pf ppf "recovered(%d) after %d attempts (verdict from attempt %d)"
      r.exit_code r.attempts r.final_attempt

(* The stable key of a status: its constructor, without payload. *)
let status_key = function
  | Exited _ -> "exited"
  | Recovered _ -> "recovered"
  | Crashed _ -> "crashed"
  | Stack_smashing_detected -> "canary"
  | Defense_blocked _ -> "blocked"
  | Timeout _ -> "timeout"
  | Out_of_memory -> "oom"
  | Internal_error _ -> "internal-error"
  | Arc_injection _ -> "arc-inj"
  | Code_injection _ -> "code-inj"

(* Each key beside the head [pp_status] prints for it, so a rendered
   status maps back to its key. *)
let status_heads =
  [
    ("exited", "exited(");
    ("recovered", "recovered(");
    ("crashed", "CRASH: ");
    ("canary", "*** stack smashing detected ***");
    ("blocked", "BLOCKED by ");
    ("timeout", "TIMEOUT after ");
    ("oom", "OUT OF MEMORY");
    ("internal-error", "INTERNAL ERROR: ");
    ("arc-inj", "ARC-INJECTION via ");
    ("code-inj", "CODE-INJECTION via ");
  ]

let status_keys = List.map fst status_heads

let key_of_rendered s =
  List.find_map
    (fun (k, head) -> if String.starts_with ~prefix:head s then Some k else None)
    status_heads

let pp ppf t =
  Fmt.pf ppf "@[<v>%a (%d steps)%a@]" pp_status t.status t.steps
    (fun ppf -> function
      | [] -> ()
      | out -> Fmt.pf ppf "@,output: %a" (Fmt.list ~sep:Fmt.sp Fmt.Dump.string) out)
    t.output

let hijacked t =
  match t.status with
  | Arc_injection _ | Code_injection _ -> true
  | _ -> false

let blocked t =
  match t.status with
  | Stack_smashing_detected | Defense_blocked _ -> true
  | _ -> false

let exited_normally t =
  match t.status with Exited _ | Recovered _ -> true | _ -> false
