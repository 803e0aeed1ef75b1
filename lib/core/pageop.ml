type 'p t = Read of 'p | Write of 'p * bytes | Rmw of 'p * (bytes -> bytes)

let map f = function
  | Read p -> Read (f p)
  | Write (p, data) -> Write (f p, data)
  | Rmw (p, g) -> Rmw (f p, g)

let rec run ~read ~write = function
  | [] -> Ok ()
  | Read p :: rest -> (
      match read p with Ok _ -> run ~read ~write rest | Error e -> Error e)
  | Write (p, data) :: rest -> (
      match write p data with Ok () -> run ~read ~write rest | Error _ as e -> e)
  | Rmw (p, f) :: rest -> (
      match read p with
      | Error e -> Error e
      | Ok v -> (
          match write p (f v) with Ok () -> run ~read ~write rest | Error _ as e -> e))
