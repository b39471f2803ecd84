(** A bounded ring: fixed capacity, keeps the newest values and counts
    the ones it overwrites. Not synchronised — callers that share a ring
    between domains hold their own lock. *)

type 'a t

val create : int -> 'a t
(** [create cap] holds at most [cap] values. Storage grows with what is
    retained, so an empty ring is a few words.
    @raise Invalid_argument when [cap < 1]. *)

val push : 'a t -> 'a -> unit
(** Append a value; when the ring is full the oldest is overwritten and
    counted in {!dropped}. *)

val to_list : 'a t -> 'a list
(** Retained values, oldest first. *)

val length : 'a t -> int
(** Retained values; [length t + dropped t] is every push since
    {!create} or {!clear}. *)

val dropped : 'a t -> int
(** Values overwritten since {!create} or {!clear}. *)

val clear : 'a t -> unit
(** Forget every value and reset the drop count. *)

val copy : 'a t -> 'a t
(** An independent ring with the same values and drop count. *)
