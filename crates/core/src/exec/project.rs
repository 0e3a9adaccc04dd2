//! Standalone projection.

use crate::arena::TupleSlot;
use crate::context::ExecContext;
use crate::exec::{schema_slot_bytes, Operator, DEFAULT_BATCH};
use crate::expr::{Expr, Program, RowRef};
use crate::footprint::{FootprintModel, OpKind};
use bufferdb_cachesim::{CodeRegion, Machine};
use bufferdb_types::{Datum, Result, Schema, SchemaRef};

/// The projection's row kernel: one program per output column. The
/// projection operator, the scan's projection and the fused push project
/// stage all run it.
pub(crate) struct RowProject {
    exprs: Vec<Program>,
}

impl RowProject {
    /// `exprs` lowered over rows of `schema`.
    pub(crate) fn new(exprs: &[(Expr, String)], schema: &SchemaRef) -> Self {
        RowProject {
            exprs: exprs.iter().map(|(e, _)| Program::new(e, schema)).collect(),
        }
    }

    /// Output columns.
    pub(crate) fn arity(&self) -> usize {
        self.exprs.len()
    }

    /// Overwrite `out` with the projection of `row`, charging each program.
    pub(crate) fn write(
        &mut self,
        machine: &mut Machine,
        row: RowRef<'_>,
        out: &mut [Datum],
    ) -> Result<()> {
        for (e, v) in self.exprs.iter_mut().zip(out) {
            machine.add_instructions(e.cost());
            v.clone_from(e.eval(row)?);
        }
        Ok(())
    }
}

/// Projection operator: evaluates expressions per input row, reading the
/// input in place and writing into its slot's recycled tuple.
pub struct ProjectOp {
    child: Box<dyn Operator>,
    project: RowProject,
    schema: SchemaRef,
    code: CodeRegion,
    out_region: u32,
    batch_hint: usize,
}

impl ProjectOp {
    /// Build a projection.
    pub fn new(
        fm: &mut FootprintModel,
        child: Box<dyn Operator>,
        exprs: Vec<(Expr, String)>,
    ) -> Result<Self> {
        let input = child.schema();
        let mut fields = Vec::with_capacity(exprs.len());
        for (e, name) in &exprs {
            fields.push(bufferdb_types::Field::nullable(
                name.clone(),
                e.data_type(&input)?,
            ));
        }
        Ok(ProjectOp {
            child,
            project: RowProject::new(&exprs, &input),
            schema: Schema::new(fields).into_ref(),
            code: fm.region_for(&OpKind::Project),
            out_region: u32::MAX,
            batch_hint: DEFAULT_BATCH,
        })
    }
}

impl Operator for ProjectOp {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn set_batch_hint(&mut self, n: usize) {
        self.batch_hint = self.batch_hint.max(n);
    }

    fn open(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.open(ctx)?;
        self.out_region = ctx
            .arena
            .alloc_region(self.batch_hint as u32 + 1, schema_slot_bytes(&self.schema));
        Ok(())
    }

    fn next(&mut self, ctx: &mut ExecContext) -> Result<Option<TupleSlot>> {
        ctx.machine.exec_region(&mut self.code);
        match self.child.next(ctx)? {
            None => Ok(None),
            Some(slot) => {
                let mut out = ctx.arena.recycle(self.out_region, self.project.arity());
                let row = ctx.arena.row(slot);
                self.project
                    .write(&mut ctx.machine, row, out.values_mut())?;
                Ok(Some(ctx.arena.store(
                    self.out_region,
                    out,
                    &mut ctx.machine,
                )))
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecContext) -> Result<()> {
        self.child.close(ctx)
    }

    fn rescan(&mut self, ctx: &mut ExecContext, param: Option<&Datum>) -> Result<()> {
        self.child.rescan(ctx, param)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::seqscan::SeqScanOp;
    use bufferdb_cachesim::MachineConfig;
    use bufferdb_storage::{Catalog, TableBuilder};
    use bufferdb_types::{DataType, Field, Tuple};

    #[test]
    fn project_computes_and_renames() {
        let c = Catalog::new();
        let mut b = TableBuilder::new("t", Schema::new(vec![Field::new("x", DataType::Int)]));
        for i in 0..5 {
            b.push(Tuple::new(vec![Datum::Int(i)]));
        }
        c.add_table(b);
        let mut fm = FootprintModel::new();
        let mut ctx = ExecContext::new(MachineConfig::pentium4_like());
        let child = Box::new(SeqScanOp::new(&c, &mut fm, "t", None, None).unwrap());
        let mut op = ProjectOp::new(
            &mut fm,
            child,
            vec![
                (Expr::col(0).mul(Expr::col(0)), "x2".into()),
                (Expr::lit(1), "one".into()),
            ],
        )
        .unwrap();
        assert_eq!(op.schema().field(0).name, "x2");
        op.open(&mut ctx).unwrap();
        let mut out = Vec::new();
        while let Some(s) = op.next(&mut ctx).unwrap() {
            out.push(ctx.arena.tuple(s).get(0).as_int().unwrap());
        }
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
    }
}
