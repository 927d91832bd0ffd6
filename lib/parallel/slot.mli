(** One reusable value per compiled object, borrowed by one domain at a
    time.

    A compiled kernel (a contractor's workspace, a tape's scratch) needs
    mutable buffers for each call and may be called from several worker
    domains at once.  A slot holds one such value, made on first use:
    {!take} borrows it and {!put} hands it back.  A domain that finds it
    borrowed by another gets a fresh value from the slot's maker, which
    {!put} then drops.  The value dies with the slot's owner, unlike
    per-domain storage ([Domain.DLS]), where every key keeps a value in
    every domain that used it for the life of the process.  Borrowing
    and returning allocate nothing. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** An empty slot whose values [make f] makes with [f]. *)

val take : 'a t -> 'a
(** The slot's value, or a fresh value while another caller holds it.
    The caller owns what it gets until it {!put}s it back. *)

val put : 'a t -> 'a -> unit
(** Hand back a value {!take} returned.  A fresh value is dropped.  A
    slot whose value is never put back (say, its user raised) makes a
    fresh value on every later {!take}. *)
