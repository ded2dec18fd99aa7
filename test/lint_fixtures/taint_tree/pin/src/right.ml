let r () = Base.tick ()
