(** Trace serialisation.

    Two plain-text formats are read. The native one is what {!to_string}
    writes, close to what iMote post-processing pipelines emit:

    {v
    # psn-trace v1
    # nodes 98
    # horizon 10800
    # kind 3 stationary          (one line per non-mobile node)
    a,b,t_start,t_end            (one line per contact, seconds)
    v}

    The whitespace one is the contact list of most published releases
    (CRAWDAD/Haggle post-processing): one [id1 id2 t_start t_end] per
    line, separated by spaces or tabs, further columns ignored.

    The first line that is neither blank nor a [#]-comment picks the
    format: a comma in its first space- or tab-separated field means
    native, anything else whitespace. A text with no contact line is
    read as native. A contact line of one format never passes this
    test for the other, so the rule loses nothing either format
    accepts. *)

val to_string : Trace.t -> string
(** Serialise to the native format. *)

val of_string : string -> (Trace.t, string) result
(** Parse either format; [Error] carries a line-numbered message and
    nothing raises. Every contact line, in both formats, is read by
    {!Contact.of_fields}: ids must be integers in
    [\[0, Node.id_bound)] and differ, times finite with
    [t_start < t_end]. Both formats reject duplicate contacts (endpoint
    order ignored; the message names the first occurrence).

    Native: the [# nodes] header must lie in [\[1, Node.id_bound\]],
    checked before anything is allocated, and every contact and
    [# kind] id must lie below it; the [# horizon] must be finite and
    positive; other comments are ignored. The result is validated with
    {!Trace.validate}.

    Whitespace: [#]-comments and blank lines are ignored. Ids shift
    down so the smallest is 0 (1-based releases start at 0), times so
    the earliest contact starts at 0; the population is the largest id
    + 1 and the horizon the latest contact end. *)

val save : Trace.t -> path:string -> unit
(** Write to a file in the native format. Raises [Sys_error] on I/O
    failure. *)

val load : path:string -> (Trace.t, string) result
(** {!of_string} on a file's contents; I/O failures are folded into
    [Error]. *)
