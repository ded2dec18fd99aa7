let init () = ()
