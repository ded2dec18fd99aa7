(** Aligned plain-text tables.

    [psn experiment] prints every reproduced figure as rows; this keeps
    them readable without pulling in any rendering dependency. *)

type align = Left | Right

val render :
  ?align:align list ->
  header:string list ->
  string list list ->
  string
(** [render ~header rows] lays the table out with column widths fitted
    to content, a separator rule under the header, and two spaces
    between columns. Ragged rows are padded with empty cells. [align]
    defaults to [Left] for every column. *)
