let run () = Fork.both ()
