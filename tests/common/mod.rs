//! Decode-shape predicates shared by the parity tests.

use ade::interp::decode::{BulkOp, BulkPlan, DInst, PlanOp};

/// Whether some op of `plan`, at any depth (`If` arms and nested loop
/// plans included), satisfies `pred`.
pub fn plan_has(plan: &BulkPlan, pred: fn(&BulkOp) -> bool) -> bool {
    fn ops_have(ops: &[PlanOp], pred: fn(&BulkOp) -> bool) -> bool {
        ops.iter().any(|p| {
            pred(&p.op)
                || match &p.op {
                    BulkOp::If {
                        then_ops, else_ops, ..
                    } => ops_have(then_ops, pred) || ops_have(else_ops, pred),
                    BulkOp::Loop { plan } => plan_has(plan, pred),
                    _ => false,
                }
        })
    }
    ops_have(&plan.prelude, pred) || ops_have(&plan.ops, pred)
}

/// Whether `inst` is a bulk loop header whose plan has an op satisfying
/// `pred`.
pub fn bulk_plan_has(inst: &DInst, pred: fn(&BulkOp) -> bool) -> bool {
    match inst {
        DInst::LoopBulk(_, plan) => plan_has(plan, pred),
        _ => false,
    }
}
