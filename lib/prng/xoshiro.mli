(** xoshiro256++ pseudo-random generator.

    The general-purpose generator used throughout the library. 256 bits
    of state, period 2^256 - 1, excellent statistical quality
    (Blackman & Vigna, 2018). All experiment code takes explicit
    generator values so that every run is reproducible from its seed. *)

type t
(** Mutable generator state. *)

val of_seed : int64 -> t
(** [of_seed seed] initialises the 256-bit state by running
    {!Splitmix64} on [seed], per the xoshiro authors' recommendation. *)

val of_state : int64 * int64 * int64 * int64 -> t
(** [of_state (s0, s1, s2, s3)] uses the given state verbatim. The state
    must not be all zeroes. Raises [Invalid_argument] if it is. *)

val next : t -> int64
(** [next t] advances the state and returns 64 fresh pseudo-random
    bits. *)
