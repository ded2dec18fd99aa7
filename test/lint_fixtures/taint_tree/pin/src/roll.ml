let roll () = Dice.both ()
