let l () = Base.tick ()
