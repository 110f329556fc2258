let overflow ~what op a b =
  Limits.eval_failure ~what (Printf.sprintf "%d %s %d overflows int (max %d)" a op b max_int)

(* The sum wrapped iff it has a sign neither operand has. *)
let add ~what a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then overflow ~what "+" a b else s

let mul ~what a b =
  let p = a * b in
  if a <> 0 && (p / a <> b || (a = -1 && b = min_int)) then overflow ~what "*" a b else p
